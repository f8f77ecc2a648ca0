//! A request's deadline through the served front door: a time budget no
//! clock can reach is no deadline, and the session runs its playouts.

use adaptive_dnn_mcts::prelude::*;
use serve::{ClusterConfig, SearchRequest, ServeCluster, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn an_unreachable_time_budget_runs_the_configured_playouts() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: ServeConfig {
            workers: 1,
            ..Default::default()
        },
        admission: None,
    });
    let eval = Arc::new(UniformEvaluator::for_game(&TicTacToe::new()));
    let request = SearchRequest::new(TicTacToe::new(), eval)
        .config(MctsConfig {
            playouts: 64,
            ..Default::default()
        })
        .budget(Budget::time(Duration::MAX));
    let ticket = cluster.submit(request).expect("no admission control");
    assert_eq!(ticket.wait().stats.playouts, 64);
}
