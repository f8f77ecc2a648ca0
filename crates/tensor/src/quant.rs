//! Int8 inference kernels: per-output-channel symmetric weights × activations
//! quantized once per sample, with the dequant fused into the bias/ReLU
//! epilogue.
//!
//! # Quantization scheme
//!
//! * **Weights** are quantized once, at snapshot time, per output channel
//!   (= per row of the GEMM A operand): `q = round(w / s_i)` with
//!   `s_i = maxabs(row_i) / 63`. The ±63 clamp is deliberate headroom: the
//!   AVX2 kernel's `_mm256_maddubs_epi16` sums **pairs** of `u8×i8`
//!   products into i16, and `255·63·2 = 32130 < 32767`, so the widening
//!   dot product can never saturate (`vpdpbusd` accumulates straight into
//!   i32 and has no such limit).
//! * **Activations** get one symmetric scale **per sample**,
//!   `s_x = maxabs(sample) / 127`, and are biased by +128 into `u8` (the
//!   unsigned operand both dot-product instructions require). A sample is
//!   one image of a convolution's batch or one input vector of a linear
//!   layer, so a sample's result does not depend on what shared its batch.
//!   The bias is exact to undo: the accumulated `Σ (q_x+128)·q_w`
//!   over-counts by `128·Σ q_w`, and the per-row weight sums are
//!   precomputed at quantization time.
//! * **Non-finite activations** quantize the same on every path: NaN is
//!   ignored by `maxabs` and becomes the zero point; ±inf is whatever the
//!   ±127 clamp gives.
//! * **Dequant** happens in the tile write-back:
//!   `C[i,j] = s_i·s_x·(acc[i,j] − 128·rowsum_i) [+ bias_i] [then ReLU]` —
//!   the same fused epilogue shape as the f32 kernel, so layers still need
//!   no separate output pass.
//!
//! # Entry points
//!
//! * [`qconv2d`] — what a served convolution runs. Each sample's
//!   `[C, H, W]` activation is scanned and quantized **once** (one
//!   vectorized `maxabs` + quantize pass) into u8 planes that interleave
//!   four channels per pixel and carry the zero point as a border; the
//!   GEMM's B panels are then *gathered* from those planes, one k-group
//!   (32 or 64 bytes, see below) per copy. No f32 im2col matrix, no
//!   staging buffer, no scatter: the tiles are written straight into
//!   `[B, out_c, oh·ow]`.
//! * [`qlinear`] — what a served linear layer runs: each input vector is
//!   quantized once and multiplied against the packed weight panels by a
//!   matrix-vector kernel (no B panel at all, no wasted tile columns at
//!   small batch).
//! * [`qgemm`] — quantizes an f32 B matrix per call with one scale and
//!   packs it panel by panel. With [`crate::conv::im2col`] it is the
//!   **differential oracle** for the two entries above (bitwise: the
//!   quantization is element-wise and the i32 accumulation exact), and the
//!   path a strided convolution takes.
//!
//! # Kernel
//!
//! Same BLIS-style structure as [`crate::ops`]: A is pre-packed (at
//! quantization time — it never changes) into `MR` = 8-row panels with k
//! grouped by 4; a B panel holds its columns with k grouped by 4, so one
//! load yields the 4-deep k-group of every column. Four targets, chosen
//! once at run time by `is_x86_feature_detected!` (see [`kernel_name`]):
//!
//! * `avx512-vnni` — one `zmm` `vpdpbusd` per tile row and k-group. Its
//!   conv tile is 16 rows × 16 columns: two consecutive A panels (so the
//!   packing is the same for every target) against a 16-column B panel
//!   that one 64-byte load covers, 16 independent accumulator chains; a
//!   layer's odd last panel runs an 8×16 tile.
//! * `avx-vnni` — one `ymm` `vpdpbusd` per tile row and k-group;
//! * `avx2` — `maddubs(b_u8, w_i8)` → 16×i16 pair sums, `madd(·, 1)` →
//!   8×i32 4-deep dots, `add`;
//! * `scalar` — portable loops.
//!
//! Every other tile is 8×8 against an 8-column, 32-byte B panel, and so
//! are [`qgemm`]'s on every target (`avx512-vnni` runs the `avx-vnni`
//! body in its EVEX encoding): the oracle keeps one tile shape whatever
//! the host, and [`qlinear`]'s matrix-vector kernel has no B panel to
//! widen. All four produce bit-identical accumulators (integer arithmetic
//! is exact), and the vectorized quantize/pack/write-back helpers round
//! and clamp exactly like their scalar twins.
//!
//! Multithreading splits the work into column-panel strips (A is
//! pre-packed and shared read-only, so the split duplicates nothing) and
//! sizes itself from [`crate::pool::effective_parallelism`], i.e. it
//! participates in the shared core budget.

use crate::conv::{im2col, Conv2dSpec};
use crate::workspace::Workspace;
use std::cell::RefCell;

/// Rows of an A panel (one 32-byte A load per k-group in the
/// matrix-vector kernel).
const MR: usize = 8;
/// Micro-kernel tile columns (one AVX2 vector of i32 lanes).
const NR: usize = 8;
/// Columns of the wide conv tile (one AVX-512 vector of i32 lanes).
const WIDE_NR: usize = 16;
/// Accumulators of the largest conv tile: two A panels by a wide B panel.
const CONV_TILE: usize = 2 * MR * WIDE_NR;
/// k values packed per group (one dot-product step consumes 4).
const KG: usize = 4;
/// Bytes of one k-group of an `NR`-wide B panel (`NR` columns × `KG`
/// values).
const GROUP_BYTES: usize = NR * KG;

/// Weight clamp. ±63 guarantees the i16 pair sums inside `maddubs` cannot
/// saturate against u8 activations (see module docs).
const WEIGHT_QMAX: f32 = 63.0;
/// Activation clamp (symmetric i8 range before the +128 bias).
const ACT_QMAX: f32 = 127.0;
/// Bias added to quantized activations to make them unsigned.
const ACT_ZERO: i32 = 128;

/// Per-output-channel symmetric int8 weights, pre-packed in the 8-row
/// panels every micro-kernel reads, with the per-row scales and weight
/// sums the dequant epilogue needs.
#[derive(Debug, Clone)]
pub struct QuantizedWeights {
    rows: usize,
    cols: usize,
    /// Kernel taps per input channel (`kh·kw`; 1 for a plain matrix).
    /// Fixes the order of k inside the panels: channel group of 4, then
    /// tap, then channel within the group — the order in which the conv
    /// gather finds 4 consecutive k as one pixel's 4 interleaved bytes.
    /// With one tap that is plain row order.
    taps: usize,
    /// k-groups of 4 per panel (`ceil(channels/4)·taps`, at least 1).
    kgroups: usize,
    /// Panel-major layout: `[row_panel][kgroup][row_in_panel][4]`, zero
    /// padded on both the row and k edges.
    packed: Vec<i8>,
    /// Per-row quantization scale (`maxabs/63`; 0 for all-zero rows).
    scales: Vec<f32>,
    /// Per-row sum of quantized weights, for the +128 activation-bias
    /// correction.
    row_sums: Vec<i32>,
}

impl QuantizedWeights {
    /// Quantize a row-major `rows × cols` f32 matrix (one output channel
    /// per row) into the packed int8 form [`qgemm`] and [`qlinear`] read.
    pub fn quantize(w: &[f32], rows: usize, cols: usize) -> Self {
        Self::pack(w, rows, cols, 1)
    }

    /// Quantize `[out_c, in_c, kh, kw]` convolution weights into the packed
    /// form [`qconv2d`] reads. Every weight quantizes exactly as under
    /// [`QuantizedWeights::quantize`] on the `out_c × in_c·kh·kw` matrix;
    /// only its place inside the panel differs.
    pub fn quantize_conv(w: &[f32], out_c: usize, in_c: usize, kh: usize, kw: usize) -> Self {
        Self::pack(w, out_c, in_c * kh * kw, (kh * kw).max(1))
    }

    fn pack(w: &[f32], rows: usize, cols: usize, taps: usize) -> Self {
        assert_eq!(w.len(), rows * cols, "weight slice must be rows*cols");
        let panels = rows.div_ceil(MR).max(1);
        let kgroups = ((cols / taps).div_ceil(KG) * taps).max(1);
        let mut q = QuantizedWeights {
            rows,
            cols,
            taps,
            kgroups,
            packed: vec![0i8; panels * kgroups * MR * KG],
            scales: Vec::with_capacity(rows),
            row_sums: Vec::with_capacity(rows),
        };
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let maxabs = row.iter().fold(0f32, |m, &v| m.max(v.abs()));
            let scale = if maxabs > 0.0 {
                maxabs / WEIGHT_QMAX
            } else {
                0.0
            };
            let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
            let mut sum = 0i32;
            for (kidx, &v) in row.iter().enumerate() {
                let qv = (v * inv).round().clamp(-WEIGHT_QMAX, WEIGHT_QMAX) as i32;
                sum += qv;
                let at = q.packed_index(r, kidx);
                q.packed[at] = qv as i8;
            }
            q.scales.push(scale);
            q.row_sums.push(sum);
        }
        q
    }

    /// Where logical k index `kidx` sits in a panel's k order.
    #[inline]
    fn packed_k(&self, kidx: usize) -> usize {
        if self.taps == 1 {
            return kidx;
        }
        let (c, t) = (kidx / self.taps, kidx % self.taps);
        ((c / KG) * self.taps + t) * KG + c % KG
    }

    /// Index into `packed` of weight `(row, kidx)`.
    fn packed_index(&self, row: usize, kidx: usize) -> usize {
        let pk = self.packed_k(kidx);
        (((row / MR) * self.kgroups + pk / KG) * MR + row % MR) * KG + pk % KG
    }

    /// Output channels (GEMM m).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction depth (GEMM k).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row quantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reconstruct the f32 matrix (`rows × cols`, row-major). Each element
    /// is within `scale/2` of the original — the round-trip contract the
    /// proptests pin down.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let s = self.scales[r];
            for kidx in 0..self.cols {
                out[r * self.cols + kidx] = self.packed[self.packed_index(r, kidx)] as f32 * s;
            }
        }
        out
    }

    /// Bytes held by the packed weight panels (footprint reporting).
    pub fn packed_bytes(&self) -> usize {
        self.packed.len()
    }

    /// Packed panel for row-panel `p`: `kgroups * MR * KG` int8 values.
    fn panel(&self, p: usize) -> &[i8] {
        self.panels(p, 1)
    }

    /// Row panels `p .. p + count`, which lie back to back.
    fn panels(&self, p: usize, count: usize) -> &[i8] {
        let stride = self.kgroups * MR * KG;
        &self.packed[p * stride..(p + count) * stride]
    }
}

/// Which micro-kernel (and with it which quantize/pack/write-back helpers)
/// a call runs. Values only come from [`Kernel::dispatched`] (and, in
/// tests, from filtering [`Kernel::ALL`] by [`Kernel::supported`]), so
/// holding a vector variant means the host has the instructions — the fact
/// every `unsafe` call into `x86` relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    AvxVnni,
    #[cfg(target_arch = "x86_64")]
    Avx512Vnni,
}

impl Kernel {
    /// Every kernel compiled in, slowest first.
    const ALL: &'static [Kernel] = &[
        Kernel::Scalar,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2,
        #[cfg(target_arch = "x86_64")]
        Kernel::AvxVnni,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512Vnni,
    ];

    /// Whether this host can run the kernel (the detection macro caches).
    fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kernel::AvxVnni => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("avxvnni")
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vnni => {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512vnni")
            }
        }
    }

    /// The fastest supported kernel: what the public entry points run.
    fn dispatched() -> Kernel {
        *Self::ALL
            .iter()
            .rev()
            .find(|k| k.supported())
            .expect("the scalar kernel runs anywhere")
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kernel::AvxVnni => "avx-vnni",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vnni => "avx512-vnni",
        }
    }

    /// True when the AVX2 quantize/pack/write-back helpers may run.
    fn vectorized(self) -> bool {
        self != Kernel::Scalar
    }

    /// Columns of a conv B panel, so of a conv tile.
    fn conv_cols(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vnni => WIDE_NR,
            _ => NR,
        }
    }

    /// A panels (of `MR` rows) one conv tile covers.
    fn conv_panels(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vnni => 2,
            _ => 1,
        }
    }

    /// `acc[i·NR + j] += Σ_k b[k, j] · a[i, k]` over one A panel and one B
    /// panel of `kgroups` k-groups.
    fn tile(self, kgroups: usize, apanel: &[i8], bpanel: &[u8], acc: &mut [i32; MR * NR]) {
        assert!(apanel.len() >= kgroups * MR * KG && bpanel.len() >= kgroups * GROUP_BYTES);
        match self {
            Kernel::Scalar => tile_scalar(kgroups, apanel, bpanel, acc),
            // SAFETY: the variant proves the features (see `Kernel`); the
            // assert above covers every byte the kernel reads.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe {
                x86::avx2::tile(kgroups, apanel.as_ptr(), bpanel.as_ptr(), acc)
            },
            #[cfg(target_arch = "x86_64")]
            Kernel::AvxVnni => unsafe {
                x86::vnni::tile(kgroups, apanel.as_ptr(), bpanel.as_ptr(), acc)
            },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vnni => unsafe {
                x86::vnni512::tile(kgroups, apanel.as_ptr(), bpanel.as_ptr(), acc)
            },
        }
    }

    /// The conv tile: `acc[i·nr + j] += Σ_k b[k, j] · a[i, k]` over the
    /// consecutive A panels `apanels` (at most [`Kernel::conv_panels`]) and
    /// one B panel `nr` = [`Kernel::conv_cols`] wide, both of `kgroups`
    /// k-groups.
    fn conv_tile(self, kgroups: usize, apanels: &[i8], bpanel: &[u8], acc: &mut [i32; CONV_TILE]) {
        let stride = kgroups * MR * KG;
        let panels = apanels.len() / stride;
        assert!(apanels.len() == panels * stride && (1..=self.conv_panels()).contains(&panels));
        assert!(bpanel.len() >= kgroups * self.conv_cols() * KG);
        match self {
            // SAFETY: the variant proves the features (see `Kernel`); the
            // asserts above cover every byte the kernel reads.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vnni if panels == 2 => unsafe {
                x86::avx512::tile::<2>(kgroups, apanels.as_ptr(), bpanel.as_ptr(), acc)
            },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vnni => unsafe {
                x86::avx512::tile::<1>(kgroups, apanels.as_ptr(), bpanel.as_ptr(), acc)
            },
            _ => {
                let acc = acc.first_chunk_mut().expect("a conv tile holds an 8×8 one");
                self.tile(kgroups, apanels, bpanel, acc)
            }
        }
    }

    /// `acc[i] += Σ_k x[k] · a[i, k]` over one A panel and one quantized
    /// vector of `kgroups · KG` values.
    fn matvec(self, kgroups: usize, apanel: &[i8], x: &[u8], acc: &mut [i32; MR]) {
        assert!(apanel.len() >= kgroups * MR * KG && x.len() >= kgroups * KG);
        match self {
            Kernel::Scalar => matvec_scalar(kgroups, apanel, x, acc),
            // SAFETY: as in `tile`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { x86::avx2::matvec(kgroups, apanel.as_ptr(), x.as_ptr(), acc) },
            #[cfg(target_arch = "x86_64")]
            Kernel::AvxVnni => unsafe {
                x86::vnni::matvec(kgroups, apanel.as_ptr(), x.as_ptr(), acc)
            },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Vnni => unsafe {
                x86::vnni512::matvec(kgroups, apanel.as_ptr(), x.as_ptr(), acc)
            },
        }
    }
}

/// Name of the int8 micro-kernel this host dispatches to: `"scalar"`,
/// `"avx2"`, `"avx-vnni"` or `"avx512-vnni"`. For bench metadata and CI
/// logs.
pub fn kernel_name() -> &'static str {
    Kernel::dispatched().name()
}

/// True when a vector micro-kernel is in use (as opposed to the portable
/// scalar fallback).
pub fn simd_enabled() -> bool {
    Kernel::dispatched().vectorized()
}

/// Bias and ReLU fused into the dequantizing write-back.
#[derive(Clone, Copy)]
struct Epilogue<'a> {
    bias: Option<&'a [f32]>,
    relu: bool,
}

impl<'a> Epilogue<'a> {
    fn new(bias: Option<&'a [f32]>, relu: bool, rows: usize) -> Self {
        if let Some(bias) = bias {
            assert_eq!(bias.len(), rows, "bias must have one entry per weight row");
        }
        Epilogue { bias, relu }
    }
}

/// One activation scale from a sample's largest magnitude: `(s_x, 1/s_x)`,
/// both 0 for an all-zero sample.
fn act_scale(maxabs: f32) -> (f32, f32) {
    let s_x = if maxabs > 0.0 { maxabs / ACT_QMAX } else { 0.0 };
    (s_x, if s_x > 0.0 { 1.0 / s_x } else { 0.0 })
}

/// Largest magnitude in `x`, ignoring NaN.
fn maxabs(kernel: Kernel, x: &[f32]) -> f32 {
    #[allow(unused_mut)]
    let (mut m, mut done) = (0f32, 0);
    #[cfg(target_arch = "x86_64")]
    if kernel.vectorized() {
        done = x.len() / 8 * 8;
        // SAFETY: AVX2 present (see `Kernel`); `done <= x.len()`.
        m = unsafe { x86::maxabs(x.as_ptr(), done) };
    }
    let _ = kernel;
    x[done..].iter().fold(m, |m, &v| m.max(v.abs()))
}

/// Quantize one activation to the biased-u8 domain, rounding to nearest
/// even via the magic-constant trick (a couple of adds instead of the slow
/// `f32::round` lowering) — the same rounding `cvtps_epi32` performs. NaN
/// survives the clamp and the adds and casts to 0, i.e. the zero point.
#[inline]
fn quantize_act(x: f32, inv_sx: f32) -> u8 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23: shifts ties-to-even into the mantissa
    let clamped = (x * inv_sx).clamp(-ACT_QMAX, ACT_QMAX);
    let rounded = (clamped + MAGIC) - MAGIC;
    (rounded as i32 + ACT_ZERO) as u8
}

/// Quantize `x` element by element into `q` (same length).
fn quantize_flat(kernel: Kernel, x: &[f32], inv_sx: f32, q: &mut [u8]) {
    debug_assert_eq!(x.len(), q.len());
    #[allow(unused_mut)]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if kernel.vectorized() {
        done = x.len() / 8 * 8;
        // SAFETY: AVX2 present; both slices hold `done` elements.
        unsafe { x86::quantize_flat(x.as_ptr(), done, inv_sx, q.as_mut_ptr()) };
    }
    let _ = kernel;
    for (qv, &v) in q[done..].iter_mut().zip(&x[done..]) {
        *qv = quantize_act(v, inv_sx);
    }
}

/// Geometry of one sample's quantized planes for a stride-1 convolution:
/// `[ceil(C/4)][H + 2·pad][W + 2·pad][4]` bytes — four channels interleaved
/// per pixel, the zero point in the border and in the channels past `C` —
/// so that 4 consecutive k of one output pixel are 4 adjacent bytes and
/// neighbouring output pixels of a row are adjacent words. Plus what the
/// gather needs of the convolution, worked out once per call.
#[derive(Clone, Copy)]
struct Planes {
    /// Channel groups of 4.
    groups: usize,
    /// Padded width in pixels.
    wp: usize,
    /// Pixels per padded plane.
    plane: usize,
    kh: usize,
    kw: usize,
    /// Output width in pixels.
    ow: usize,
}

impl Planes {
    fn of(spec: &Conv2dSpec) -> Self {
        let wp = spec.in_w + 2 * spec.pad;
        Planes {
            groups: spec.in_c.div_ceil(KG),
            wp,
            plane: (spec.in_h + 2 * spec.pad) * wp,
            kh: spec.kh,
            kw: spec.kw,
            ow: spec.out_w(),
        }
    }

    /// Bytes of one sample.
    fn bytes(&self) -> usize {
        self.groups * self.plane * KG
    }
}

/// Scan and quantize one `[C, H, W]` sample into its planes; returns the
/// sample's scale.
fn quantize_planes(
    kernel: Kernel,
    spec: &Conv2dSpec,
    pl: &Planes,
    img: &[f32],
    q: &mut [u8],
) -> f32 {
    let (c, h, w, pad) = (spec.in_c, spec.in_h, spec.in_w, spec.pad);
    debug_assert_eq!(img.len(), c * h * w);
    debug_assert_eq!(q.len(), pl.bytes());
    let (s_x, inv_sx) = act_scale(maxabs(kernel, img));
    q.fill(ACT_ZERO as u8);
    // Whole channel groups of rows at least a vector wide go through the
    // AVX2 interleave; the rest through the scalar loop below.
    #[allow(unused_mut)]
    let mut done_c = 0;
    #[cfg(target_arch = "x86_64")]
    if kernel.vectorized() && w >= 8 {
        done_c = c / KG * KG;
        // SAFETY: AVX2 present; `img` holds `done_c` channels of `h·w` and
        // `q` the padded planes of `done_c / 4` groups (asserted above).
        unsafe {
            x86::quantize_planes(img.as_ptr(), done_c / KG, h, w, pad, inv_sx, q.as_mut_ptr())
        };
    }
    for ch in done_c..c {
        for y in 0..h {
            let src = &img[(ch * h + y) * w..][..w];
            let dst = ((ch / KG) * pl.plane + (y + pad) * pl.wp + pad) * KG + ch % KG;
            for (x, &v) in src.iter().enumerate() {
                q[dst + x * KG] = quantize_act(v, inv_sx);
            }
        }
    }
    s_x
}

/// Scan and quantize one input vector of a linear layer into `q`
/// (`kgroups · KG` bytes, zero point past `x.len()`); returns its scale.
fn quantize_row(kernel: Kernel, x: &[f32], q: &mut [u8]) -> f32 {
    let (s_x, inv_sx) = act_scale(maxabs(kernel, x));
    let (head, tail) = q.split_at_mut(x.len());
    quantize_flat(kernel, x, inv_sx, head);
    tail.fill(ACT_ZERO as u8);
    s_x
}

/// Run `work(lo, hi)` over `items` independent units: in strips across the
/// pool when the call is big enough to pay for the hand-over, inline
/// otherwise.
fn for_each_strip(items: usize, flops: usize, work: &(dyn Fn(usize, usize) + Sync)) {
    let threads = crate::pool::effective_parallelism();
    if flops >= crate::ops::MT_FLOP_THRESHOLD && threads > 1 && items >= 2 {
        let per_strip = items.div_ceil(threads.min(items));
        crate::pool::run_strips(items.div_ceil(per_strip), &|s| {
            work(s * per_strip, ((s + 1) * per_strip).min(items))
        });
    } else {
        work(0, items);
    }
}

/// `*mut f32` wrapper so disjoint-strip writers can share the C pointer.
#[derive(Clone, Copy)]
struct CPtr(*mut f32);
// SAFETY: strips write disjoint C regions (see call sites).
unsafe impl Sync for CPtr {}

thread_local! {
    /// Per-thread packed-B panel (`kgroups` groups plus one group of slack
    /// for the conv gather's overlapping copies), reused across calls so
    /// the steady state allocates nothing.
    static QPACK_B: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Int8 convolution with fused dequant/bias/ReLU epilogue: `input` is
/// `[B, in_c, in_h, in_w]`, `out` is `[B, out_c, out_h·out_w]`, `qw` comes
/// from [`QuantizedWeights::quantize_conv`]. Each sample is quantized once
/// with its own scale and the B panels are gathered from its u8 planes
/// (module docs); the quantized planes live in `ws`.
///
/// The result equals [`crate::conv::im2col`] → [`qgemm`] run sample by
/// sample, bit for bit. A strided convolution *is* run that way: not every
/// input element reaches its im2col matrix, so a scale taken from the
/// whole sample would differ from the oracle's.
pub fn qconv2d(
    qw: &QuantizedWeights,
    spec: &Conv2dSpec,
    input: &[f32],
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
    ws: &mut Workspace,
) {
    qconv2d_with(Kernel::dispatched(), qw, spec, input, out, bias, relu, ws);
}

#[allow(clippy::too_many_arguments)]
fn qconv2d_with(
    kernel: Kernel,
    qw: &QuantizedWeights,
    spec: &Conv2dSpec,
    input: &[f32],
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
    ws: &mut Workspace,
) {
    spec.validate();
    let (m, k, cols) = (spec.out_c, spec.col_rows(), spec.col_cols());
    assert_eq!((qw.rows, qw.cols), (m, k), "weights do not fit the spec");
    assert_eq!(
        qw.taps,
        (spec.kh * spec.kw).max(1),
        "weights not packed for this kernel size"
    );
    let img_len = spec.in_c * spec.in_h * spec.in_w;
    let out_len = m * cols;
    assert!(img_len > 0 && out_len > 0, "empty convolution");
    let batch = input.len() / img_len;
    assert_eq!(input.len(), batch * img_len, "input must be whole samples");
    assert_eq!(out.len(), batch * out_len, "out must be [B, out_c, oh*ow]");
    let ep = Epilogue::new(bias, relu, m);

    if spec.stride != 1 {
        let col = ws.col_buf(k * cols);
        for (img, o) in input
            .chunks_exact(img_len)
            .zip(out.chunks_exact_mut(out_len))
        {
            im2col(spec, img, col);
            qgemm_with(kernel, qw, col, false, cols, o, ep);
        }
        return;
    }

    let (nr, tile_panels) = (kernel.conv_cols(), kernel.conv_panels());
    let group_bytes = nr * KG;
    let pl = Planes::of(spec);
    let sample = pl.bytes();
    // One group of slack: a gather copy may read that far past a sample.
    let (q, scales) = ws.quant_scratch(batch * sample + group_bytes, batch);
    for (bi, img) in input.chunks_exact(img_len).enumerate() {
        scales[bi] = quantize_planes(
            kernel,
            spec,
            &pl,
            img,
            &mut q[bi * sample..(bi + 1) * sample],
        );
    }
    let (q, scales) = (&*q, &*scales);

    let col_panels = cols.div_ceil(nr);
    let row_panels = m.div_ceil(MR);
    let kgroups = qw.kgroups;
    let c_ptr = CPtr(out.as_mut_ptr());
    let c_ptr = &c_ptr;
    for_each_strip(batch * col_panels, 2 * m * k * cols * batch, &|lo, hi| {
        QPACK_B.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.resize((kgroups + 1) * group_bytes, 0);
            let mut acc = [0i32; CONV_TILE];
            for item in lo..hi {
                let (bi, j0) = (item / col_panels, item % col_panels * nr);
                let jcount = nr.min(cols - j0);
                // SAFETY: sample `bi`'s block of `out`; its tiles stay
                // inside it, and items (so strips) are disjoint in
                // (sample, column panel).
                let c = CPtr(unsafe { c_ptr.0.add(bi * out_len) });
                let q = &q[bi * sample..];
                if nr == WIDE_NR {
                    gather_b_panel::<WIDE_NR>(&pl, q, j0, jcount, &mut buf);
                } else {
                    gather_b_panel::<NR>(&pl, q, j0, jcount, &mut buf);
                }
                for rp in (0..row_panels).step_by(tile_panels) {
                    let panels = tile_panels.min(row_panels - rp);
                    let acc_len = panels * MR * nr;
                    acc[..acc_len].fill(0);
                    kernel.conv_tile(kgroups, qw.panels(rp, panels), &buf, &mut acc);
                    // SAFETY: rows/cols of this tile are in-bounds of the
                    // sample's `m × cols` block.
                    unsafe {
                        write_tile(
                            kernel,
                            &acc[..acc_len],
                            nr,
                            qw,
                            rp,
                            j0,
                            jcount,
                            cols,
                            false,
                            c,
                            ep,
                            scales[bi],
                        );
                    }
                }
            }
        });
    });
}

/// Gather the `W`-column B panel of output pixels `j0 .. j0 + jcount` of
/// one sample from its quantized planes `q` (which must extend one group
/// past the sample, see `qconv2d`). Output pixels that share a row are
/// adjacent words of a plane row, so each k-group is one `4·W`-byte copy
/// per row the panel touches. A copy is always a whole group: what it
/// carries past its run lands in columns a later copy overwrites (next
/// run, next group, the buffer's slack) or in the unused columns of a
/// ragged panel.
fn gather_b_panel<const W: usize>(pl: &Planes, q: &[u8], j0: usize, jcount: usize, buf: &mut [u8]) {
    let group_bytes = W * KG;
    // Per run of pixels in one output row: byte offset of its first column
    // in a group, byte offset of its first pixel in a plane at tap (0, 0).
    let mut runs = [(0usize, 0usize); W];
    let mut nruns = 0;
    let (mut oy, mut ox, mut jj) = (j0 / pl.ow, j0 % pl.ow, 0);
    while jj < jcount {
        runs[nruns] = (jj * KG, (oy * pl.wp + ox) * KG);
        nruns += 1;
        jj += pl.ow - ox;
        (oy, ox) = (oy + 1, 0);
    }
    let runs = &runs[..nruns];
    // The furthest copy: last run (offsets grow from run to run), last tap
    // of the last channel group, into the last group of the panel.
    let (last_d, last_s) = runs[nruns - 1];
    let last_tap = ((pl.groups - 1) * pl.plane + (pl.kh - 1) * pl.wp + pl.kw - 1) * KG;
    let last_dst = (pl.groups * pl.kh * pl.kw - 1) * group_bytes;
    assert!(last_tap + last_s + group_bytes <= q.len());
    assert!(last_dst + last_d + group_bytes <= buf.len());
    let mut dst = 0;
    for cg in 0..pl.groups {
        for ky in 0..pl.kh {
            for kx in 0..pl.kw {
                let tap = (cg * pl.plane + ky * pl.wp + kx) * KG;
                for &(d, s) in runs {
                    // SAFETY: `tap <= last_tap`, `s <= last_s`,
                    // `dst <= last_dst` and `d <= last_d`, so the two
                    // asserts above bound both ends of every copy.
                    // Unchecked because the checks cost as much as the
                    // copies: 2.0 → 1.2 µs for the 11 8-column panels of a
                    // 32-channel 3×3 conv on a 9×9 board.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            q.as_ptr().add(tap + s),
                            buf.as_mut_ptr().add(dst + d),
                            group_bytes,
                        );
                    }
                }
                dst += group_bytes;
            }
        }
    }
}

/// Int8 linear layer with fused dequant/bias/ReLU epilogue: `input` is
/// `[n, cols]` (one sample per row), `out` is `[n, rows]`, `qw` comes from
/// [`QuantizedWeights::quantize`]. Each input vector is quantized once with
/// its own scale (into `ws`) and multiplied against the packed weight
/// panels by the matrix-vector kernel. Row `j` equals
/// `qgemm(qw, input[j], tb = true, n = 1, ..)` bit for bit.
pub fn qlinear(
    qw: &QuantizedWeights,
    input: &[f32],
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
    ws: &mut Workspace,
) {
    qlinear_with(Kernel::dispatched(), qw, input, out, bias, relu, ws);
}

fn qlinear_with(
    kernel: Kernel,
    qw: &QuantizedWeights,
    input: &[f32],
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
    ws: &mut Workspace,
) {
    let (m, k) = (qw.rows, qw.cols);
    assert_eq!(qw.taps, 1, "conv-ordered weights go through qconv2d");
    assert!(m > 0 && k > 0, "empty linear layer");
    let n = input.len() / k;
    assert_eq!(input.len(), n * k, "input must be whole rows");
    assert_eq!(out.len(), n * m, "out must be [n, rows]");
    let ep = Epilogue::new(bias, relu, m);

    let row_q = qw.kgroups * KG;
    let (q, scales) = ws.quant_scratch(n * row_q, n);
    for (j, x) in input.chunks_exact(k).enumerate() {
        scales[j] = quantize_row(kernel, x, &mut q[j * row_q..(j + 1) * row_q]);
    }
    let (q, scales) = (&*q, &*scales);

    let c_ptr = CPtr(out.as_mut_ptr());
    let c_ptr = &c_ptr;
    for_each_strip(n, 2 * m * n * k, &|lo, hi| {
        for j in lo..hi {
            let x = &q[j * row_q..(j + 1) * row_q];
            for rp in 0..m.div_ceil(MR) {
                let mut acc = [0i32; MR];
                kernel.matvec(qw.kgroups, qw.panel(rp), x, &mut acc);
                for (i, &a) in acc.iter().enumerate().take(m - rp * MR) {
                    let row = rp * MR + i;
                    // SAFETY: `j < n`, `row < m`; strips own disjoint `j`.
                    unsafe { *c_ptr.0.add(j * m + row) = dequant(a, qw, row, scales[j], ep) };
                }
            }
        }
    });
}

/// Int8 GEMM over an f32 B matrix quantized per call with **one** scale
/// (`maxabs(B) / 127`), with the fused dequant/bias/ReLU epilogue — the
/// oracle the serving entries [`qconv2d`] and [`qlinear`] are tested
/// against, and the path of a strided convolution.
///
/// * `tb == false` (convolution): `B` is `cols × n` row-major (an im2col
///   matrix), `C` is `rows × n` — `C = deq(Wq × Bq)`.
/// * `tb == true` (linear): `B` is `n × cols` row-major (`n` input vectors),
///   `C` is `n × rows` — `C = deq(Bq × Wqᵀ)`, written transposed directly
///   from the tile, so no scratch staging is needed.
///
/// `bias` (when present) has one entry per weight row (= output channel /
/// output feature) in both layouts; `relu` clamps after the bias.
pub fn qgemm(
    qw: &QuantizedWeights,
    b: &[f32],
    tb: bool,
    n: usize,
    c: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
) {
    let ep = Epilogue::new(bias, relu, qw.rows);
    qgemm_with(Kernel::dispatched(), qw, b, tb, n, c, ep);
}

fn qgemm_with(
    kernel: Kernel,
    qw: &QuantizedWeights,
    b: &[f32],
    tb: bool,
    n: usize,
    c: &mut [f32],
    ep: Epilogue,
) {
    let (m, k) = (qw.rows, qw.cols);
    assert_eq!(b.len(), k * n, "B must be k*n elements");
    assert_eq!(c.len(), m * n, "C must be m*n elements");
    if m == 0 || n == 0 {
        return;
    }
    let (s_x, inv_sx) = act_scale(maxabs(kernel, b));
    let kgroups = qw.kgroups;
    let row_panels = m.div_ceil(MR);
    let c_ptr = CPtr(c.as_mut_ptr());
    let c_ptr = &c_ptr;
    for_each_strip(n.div_ceil(NR), 2 * m * n * k, &|p0, p1| {
        QPACK_B.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.resize(kgroups * GROUP_BYTES, 0);
            for cp in p0..p1 {
                let j0 = cp * NR;
                let jcount = NR.min(n - j0);
                pack_b_panel(kernel, qw, b, tb, n, j0, jcount, inv_sx, &mut buf);
                for rp in 0..row_panels {
                    let mut acc = [0i32; MR * NR];
                    kernel.tile(kgroups, qw.panel(rp), &buf, &mut acc);
                    // SAFETY: rows/cols of this tile are in-bounds, and
                    // strips cover disjoint column panels, so no two
                    // workers touch the same C element (in either the
                    // direct or the transposed write layout).
                    unsafe {
                        write_tile(kernel, &acc, NR, qw, rp, j0, jcount, n, tb, *c_ptr, ep, s_x);
                    }
                }
            }
        });
    });
}

/// Quantize + pack `jcount` B columns starting at `j0` into the
/// `[kgroup][col][4]` u8 layout. Padding (k edge, missing columns) is the
/// activation zero point, which the zero-padded weights annihilate.
#[allow(clippy::too_many_arguments)]
fn pack_b_panel(
    kernel: Kernel,
    qw: &QuantizedWeights,
    b: &[f32],
    tb: bool,
    n: usize,
    j0: usize,
    jcount: usize,
    inv_sx: f32,
    buf: &mut [u8],
) {
    let k = qw.cols;
    debug_assert_eq!(buf.len(), qw.kgroups * GROUP_BYTES);
    // Full-width direct-layout panels in plain k order take the vectorized
    // quantize+transpose; everything else (linear layout, ragged column
    // edge, conv-ordered weights) goes through the scalar loop below.
    #[cfg(target_arch = "x86_64")]
    if !tb && jcount == NR && qw.taps == 1 && kernel.vectorized() {
        let full_groups = k / KG;
        // SAFETY: AVX2 present; jcount == NR means columns j0..j0+8 are
        // in-bounds for every row of the k × n matrix.
        unsafe {
            x86::pack_b_panel(b.as_ptr(), n, j0, full_groups, inv_sx, buf.as_mut_ptr());
        }
        // k tail (k % 4 != 0): scalar quantize, zero-point padding.
        if full_groups * KG < k {
            buf[full_groups * GROUP_BYTES..].fill(ACT_ZERO as u8);
            for jj in 0..jcount {
                for kidx in full_groups * KG..k {
                    let q = quantize_act(b[kidx * n + j0 + jj], inv_sx);
                    buf[(kidx / KG * NR + jj) * KG + kidx % KG] = q;
                }
            }
        }
        return;
    }
    let _ = kernel;
    buf.fill(ACT_ZERO as u8);
    for jj in 0..jcount {
        let j = j0 + jj;
        for kidx in 0..k {
            let x = if tb { b[j * k + kidx] } else { b[kidx * n + j] };
            let pk = qw.packed_k(kidx);
            buf[(pk / KG * NR + jj) * KG + pk % KG] = quantize_act(x, inv_sx);
        }
    }
}

/// Portable reference micro-kernel: bit-identical i32 accumulators to the
/// vector kernels (integer arithmetic is exact).
fn tile_scalar(kgroups: usize, apanel: &[i8], bpanel: &[u8], acc: &mut [i32; MR * NR]) {
    for g in 0..kgroups {
        let ab = &apanel[g * MR * KG..(g + 1) * MR * KG];
        let bb = &bpanel[g * GROUP_BYTES..(g + 1) * GROUP_BYTES];
        for i in 0..MR {
            let w = &ab[i * KG..(i + 1) * KG];
            for j in 0..NR {
                let x = &bb[j * KG..(j + 1) * KG];
                let mut s = 0i32;
                for kk in 0..KG {
                    s += x[kk] as i32 * w[kk] as i32;
                }
                acc[i * NR + j] += s;
            }
        }
    }
}

/// Portable reference matrix-vector kernel.
fn matvec_scalar(kgroups: usize, apanel: &[i8], x: &[u8], acc: &mut [i32; MR]) {
    for g in 0..kgroups {
        let ab = &apanel[g * MR * KG..(g + 1) * MR * KG];
        let xb = &x[g * KG..(g + 1) * KG];
        for (i, a) in acc.iter_mut().enumerate() {
            for kk in 0..KG {
                *a += xb[kk] as i32 * ab[i * KG + kk] as i32;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ACT_QMAX, ACT_ZERO, CONV_TILE, GROUP_BYTES, KG, MR, NR, WIDE_NR};
    use std::arch::x86_64::*;

    /// `acc + Σ₄ u8·i8` per i32 lane, the AVX2 way: `maddubs` (u8×i8 →
    /// paired i16, cannot saturate against ±63 weights) then `madd` against
    /// ones (i16 → summed i32).
    macro_rules! dot4_avx2 {
        ($acc:expr, $u:expr, $s:expr) => {
            _mm256_add_epi32(
                $acc,
                _mm256_madd_epi16(_mm256_maddubs_epi16($u, $s), _mm256_set1_epi16(1)),
            )
        };
    }

    /// The same in one instruction (`vpdpbusd`).
    macro_rules! dot4_vnni {
        ($acc:expr, $u:expr, $s:expr) => {
            _mm256_dpbusd_avx_epi32($acc, $u, $s)
        };
    }

    /// The same instruction in its AVX-512 VNNI (EVEX) encoding, which a
    /// host with AVX-512 VNNI runs whether or not it has AVX-VNNI.
    macro_rules! dot4_vnni512 {
        ($acc:expr, $u:expr, $s:expr) => {
            _mm256_dpbusd_epi32($acc, $u, $s)
        };
    }

    /// Stamp out the two micro-kernels for one instruction set; the bodies
    /// differ only in `$dot`.
    macro_rules! kernels {
        ($name:ident, $features:literal, $dot:ident) => {
            pub mod $name {
                use super::*;

                /// 8×8 micro-kernel: per k-group, one 32-byte B load gives
                /// the 4-deep slice of all 8 columns; each row's 4 weights
                /// broadcast as an i32 and one dot step accumulates the 8
                /// column dots of that row.
                ///
                /// # Safety
                /// The target features must be available. `apanel` must
                /// hold `kgroups*MR*KG` i8 and `bpanel` `kgroups*NR*KG` u8.
                #[target_feature(enable = $features)]
                pub unsafe fn tile(
                    kgroups: usize,
                    apanel: *const i8,
                    bpanel: *const u8,
                    acc: &mut [i32; MR * NR],
                ) {
                    let out = acc.as_mut_ptr() as *mut __m256i;
                    let mut c = [_mm256_setzero_si256(); MR];
                    for (i, ci) in c.iter_mut().enumerate() {
                        *ci = _mm256_loadu_si256(out.add(i));
                    }
                    for g in 0..kgroups {
                        let bv = _mm256_loadu_si256(bpanel.add(g * GROUP_BYTES) as *const __m256i);
                        let w = apanel.add(g * MR * KG) as *const i32;
                        for (i, ci) in c.iter_mut().enumerate() {
                            *ci = $dot!(*ci, bv, _mm256_set1_epi32(w.add(i).read_unaligned()));
                        }
                    }
                    for (i, ci) in c.iter().enumerate() {
                        _mm256_storeu_si256(out.add(i), *ci);
                    }
                }

                /// Matrix-vector micro-kernel: per k-group, one 32-byte A
                /// load gives the 4-deep slice of all 8 rows; the vector's
                /// 4 values broadcast as an i32. Four k-groups per pass on
                /// four accumulators, so the dot steps do not wait on each
                /// other.
                ///
                /// # Safety
                /// The target features must be available. `apanel` must
                /// hold `kgroups*MR*KG` i8 and `x` `kgroups*KG` u8.
                #[target_feature(enable = $features)]
                pub unsafe fn matvec(
                    kgroups: usize,
                    apanel: *const i8,
                    x: *const u8,
                    acc: &mut [i32; MR],
                ) {
                    let a = apanel as *const __m256i;
                    let x = x as *const i32;
                    let mut c = [_mm256_setzero_si256(); 4];
                    let mut g = 0;
                    while g + 4 <= kgroups {
                        for (u, cu) in c.iter_mut().enumerate() {
                            let xv = _mm256_set1_epi32(x.add(g + u).read_unaligned());
                            *cu = $dot!(*cu, xv, _mm256_loadu_si256(a.add(g + u)));
                        }
                        g += 4;
                    }
                    while g < kgroups {
                        let xv = _mm256_set1_epi32(x.add(g).read_unaligned());
                        c[0] = $dot!(c[0], xv, _mm256_loadu_si256(a.add(g)));
                        g += 1;
                    }
                    let sum = _mm256_add_epi32(
                        _mm256_add_epi32(c[0], c[1]),
                        _mm256_add_epi32(c[2], c[3]),
                    );
                    let out = acc.as_mut_ptr() as *mut __m256i;
                    _mm256_storeu_si256(out, _mm256_add_epi32(_mm256_loadu_si256(out), sum));
                }
            }
        };
    }

    kernels!(avx2, "avx2", dot4_avx2);
    kernels!(vnni, "avx2,avxvnni", dot4_vnni);
    kernels!(vnni512, "avx2,avx512f,avx512vl,avx512vnni", dot4_vnni512);

    pub mod avx512 {
        use super::*;

        /// Wide conv micro-kernel, `P·MR` rows × `WIDE_NR` columns
        /// (`P` = 2: 16×16; `P` = 1: 8×16): per k-group, one 64-byte B
        /// load gives the 4-deep slice of all 16 columns; each row's 4
        /// weights broadcast as an i32 and one `vpdpbusd` accumulates the
        /// 16 column dots of that row. Rows `0..8` come from the first A
        /// panel and rows `8..16` from the next one, so the weights keep
        /// their 8-row packing; the 16 accumulator chains are independent.
        ///
        /// # Safety
        /// AVX-512 F, BW and VNNI must be available. `apanels` must hold
        /// `P` panels of `kgroups*MR*KG` i8 back to back and `bpanel`
        /// `kgroups*WIDE_NR*KG` u8.
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
        pub unsafe fn tile<const P: usize>(
            kgroups: usize,
            apanels: *const i8,
            bpanel: *const u8,
            acc: &mut [i32; CONV_TILE],
        ) {
            let stride = kgroups * MR * KG;
            let out = acc.as_mut_ptr() as *mut __m512i;
            let mut c = [_mm512_setzero_si512(); 2 * MR];
            for (i, ci) in c.iter_mut().enumerate().take(P * MR) {
                *ci = _mm512_loadu_si512(out.add(i));
            }
            for g in 0..kgroups {
                let bv = _mm512_loadu_si512(bpanel.add(g * WIDE_NR * KG) as *const __m512i);
                for p in 0..P {
                    let w = apanels.add(p * stride + g * MR * KG) as *const i32;
                    for i in 0..MR {
                        let ci = &mut c[p * MR + i];
                        *ci = _mm512_dpbusd_epi32(
                            *ci,
                            bv,
                            _mm512_set1_epi32(w.add(i).read_unaligned()),
                        );
                    }
                }
            }
            for (i, ci) in c.iter().enumerate().take(P * MR) {
                _mm512_storeu_si512(out.add(i), *ci);
            }
        }
    }

    /// Largest magnitude among the first `len` (a multiple of 8) elements,
    /// ignoring NaN: `max_ps` returns its second operand when the first is
    /// NaN, and the running maximum is always the second.
    ///
    /// # Safety
    /// AVX2 must be available; `x` must point at `len` readable f32.
    #[target_feature(enable = "avx2")]
    pub unsafe fn maxabs(x: *const f32, len: usize) -> f32 {
        let abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        // Four running maxima: `max_ps` has a 4-cycle latency.
        let mut m = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i + 32 <= len {
            for (u, mu) in m.iter_mut().enumerate() {
                *mu = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(x.add(i + 8 * u)), abs), *mu);
            }
            i += 32;
        }
        while i < len {
            m[0] = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(x.add(i)), abs), m[0]);
            i += 8;
        }
        let m = _mm256_max_ps(_mm256_max_ps(m[0], m[1]), _mm256_max_ps(m[2], m[3]));
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), m);
        lanes.iter().fold(0f32, |a, &v| a.max(v))
    }

    /// Load, scale, clamp, and quantize 8 activations into biased-u8 range
    /// (still widened in i32 lanes). NaN is masked to 0 first, so it lands
    /// on the zero point like in the scalar `quantize_act`.
    ///
    /// # Safety
    /// AVX2 must be available; `p` must point at 8 readable f32.
    #[target_feature(enable = "avx2")]
    unsafe fn quant_row(p: *const f32, inv: __m256) -> __m256i {
        let x = _mm256_mul_ps(_mm256_loadu_ps(p), inv);
        let x = _mm256_and_ps(x, _mm256_cmp_ps::<_CMP_ORD_Q>(x, x));
        let lo = _mm256_set1_ps(-ACT_QMAX);
        let hi = _mm256_set1_ps(ACT_QMAX);
        let clamped = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
        _mm256_add_epi32(_mm256_cvtps_epi32(clamped), _mm256_set1_epi32(ACT_ZERO))
    }

    /// Quantize a 4-row × 8-column block (rows `stride` f32 apart) into 32
    /// bytes laid out `[col][row]`: `cvtps_epi32` (nearest-even, matching
    /// the scalar path's magic-constant rounding), narrow 4×8 i32 → 32 u8,
    /// shuffle into the interleave the micro-kernel reads.
    ///
    /// # Safety
    /// AVX2 must be available; 8 f32 must be readable at `p + r·stride`
    /// for `r` in `0..4`.
    #[target_feature(enable = "avx2")]
    unsafe fn quant_block(p: *const f32, stride: usize, inv: __m256) -> __m256i {
        // Per 128-bit lane: bytes [t0j0..3, t1j0..3, t2j0..3, t3j0..3] →
        // [j0: t0..t3, j1: t0..t3, j2..., j3...].
        let interleave = _mm256_setr_epi8(
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, //
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        );
        let t0 = quant_row(p, inv);
        let t1 = quant_row(p.add(stride), inv);
        let t2 = quant_row(p.add(2 * stride), inv);
        let t3 = quant_row(p.add(3 * stride), inv);
        // packs/packus operate per 128-bit lane, so after both packs
        // lane 0 holds columns j0..j3 and lane 1 columns j4..j7 —
        // exactly the contiguous output order once interleaved.
        let s01 = _mm256_packs_epi32(t0, t1);
        let s23 = _mm256_packs_epi32(t2, t3);
        _mm256_shuffle_epi8(_mm256_packus_epi16(s01, s23), interleave)
    }

    /// Vectorized quantize+transpose pack of one full-width B panel in the
    /// direct (`k × n`) layout, one [`quant_block`] per k-group.
    ///
    /// # Safety
    /// AVX2 must be available; rows `0..full_groups*4` × columns
    /// `j0..j0+8` must be in-bounds; `buf` must hold `full_groups*32` u8.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_b_panel(
        b: *const f32,
        n: usize,
        j0: usize,
        full_groups: usize,
        inv_sx: f32,
        buf: *mut u8,
    ) {
        let inv = _mm256_set1_ps(inv_sx);
        for g in 0..full_groups {
            let block = quant_block(b.add(g * KG * n + j0), n, inv);
            _mm256_storeu_si256(buf.add(g * GROUP_BYTES) as *mut __m256i, block);
        }
    }

    /// Quantize `groups` whole channel groups of a `[C, h, w]` sample into
    /// the interior of their padded planes (`super::Planes`), 8 pixels of 4
    /// channels per [`quant_block`]; a row's last block is re-anchored to
    /// end at the row's end, overlapping the one before it.
    ///
    /// # Safety
    /// AVX2 must be available; `w >= 8`; `img` must hold `groups*4`
    /// channels of `h*w` f32 and `q` `groups` planes of
    /// `(h + 2·pad)·(w + 2·pad)·4` bytes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_planes(
        img: *const f32,
        groups: usize,
        h: usize,
        w: usize,
        pad: usize,
        inv_sx: f32,
        q: *mut u8,
    ) {
        let inv = _mm256_set1_ps(inv_sx);
        let wp = w + 2 * pad;
        let plane = (h + 2 * pad) * wp;
        for cg in 0..groups {
            for y in 0..h {
                let src = img.add((cg * KG * h + y) * w);
                let dst = q.add((cg * plane + (y + pad) * wp + pad) * KG);
                let mut x = 0;
                while x < w {
                    x = x.min(w - 8);
                    let block = quant_block(src.add(x), h * w, inv);
                    _mm256_storeu_si256(dst.add(x * KG) as *mut __m256i, block);
                    x += 8;
                }
            }
        }
    }

    /// Quantize `len` (a multiple of 8) activations in place order.
    ///
    /// # Safety
    /// AVX2 must be available; `x` must point at `len` readable f32 and
    /// `q` at `len` writable bytes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_flat(x: *const f32, len: usize, inv_sx: f32, q: *mut u8) {
        let inv = _mm256_set1_ps(inv_sx);
        for i in (0..len).step_by(8) {
            let t = quant_row(x.add(i), inv);
            // Per lane: 4 values as i32 → i16 → u8 in the lane's low word.
            let bytes = _mm256_packus_epi16(_mm256_packs_epi32(t, t), _mm256_setzero_si256());
            (q.add(i) as *mut i32).write_unaligned(_mm256_extract_epi32::<0>(bytes));
            (q.add(i + 4) as *mut i32).write_unaligned(_mm256_extract_epi32::<4>(bytes));
        }
    }

    /// Vectorized dequant write-back for one full 8-wide tile row:
    /// `(acc − corr) · deq + bias`, optional ReLU, contiguous store.
    ///
    /// # Safety
    /// AVX2 must be available; `acc_row` must hold 8 i32; `dst` 8 f32.
    #[target_feature(enable = "avx2")]
    pub unsafe fn write_row(
        acc_row: *const i32,
        corr: i32,
        deq: f32,
        badd: f32,
        relu: bool,
        dst: *mut f32,
    ) {
        let a = _mm256_loadu_si256(acc_row as *const __m256i);
        let a = _mm256_sub_epi32(a, _mm256_set1_epi32(corr));
        let f = _mm256_cvtepi32_ps(a);
        let mut v = _mm256_add_ps(_mm256_mul_ps(f, _mm256_set1_ps(deq)), _mm256_set1_ps(badd));
        if relu {
            v = _mm256_max_ps(v, _mm256_setzero_ps());
        }
        _mm256_storeu_ps(dst, v);
    }
}

/// Dequantize one accumulator of weight row `row` with the fused epilogue:
/// `s_row·s_x·(acc − 128·rowsum) + bias`, then ReLU.
#[inline]
fn dequant(acc: i32, qw: &QuantizedWeights, row: usize, s_x: f32, ep: Epilogue) -> f32 {
    let raw = acc - ACT_ZERO * qw.row_sums[row];
    let v = qw.scales[row] * s_x * raw as f32 + ep.bias.map_or(0.0, |b| b[row]);
    if ep.relu && v < 0.0 {
        0.0
    } else {
        v
    }
}

/// Dequantize one accumulator tile — `nr` accumulators per row, its first
/// row the first of row panel `rp` — and write it back with the fused
/// epilogue. `tb` selects the direct (`C[row, col]`) or transposed
/// (`C[col, row]`) layout.
///
/// # Safety
/// Caller must guarantee `c` points to an `m×n` (or `n×m`) buffer and that
/// concurrent callers cover disjoint `j0` ranges.
#[allow(clippy::too_many_arguments)]
unsafe fn write_tile(
    kernel: Kernel,
    acc: &[i32],
    nr: usize,
    qw: &QuantizedWeights,
    rp: usize,
    j0: usize,
    jcount: usize,
    n: usize,
    tb: bool,
    c: CPtr,
    ep: Epilogue,
    s_x: f32,
) {
    let m = qw.rows;
    let rows_here = (acc.len() / nr).min(m - rp * MR);
    // Fast path: full-width tile in the direct layout — one vectorized
    // dequant+bias+ReLU store per 8 columns of a row. The transposed
    // (linear) layout and ragged edges fall through to the scalar loop.
    #[cfg(target_arch = "x86_64")]
    if !tb && jcount == nr && kernel.vectorized() {
        for i in 0..rows_here {
            let row = rp * MR + i;
            for j in (0..nr).step_by(NR) {
                // SAFETY: AVX2 present; `acc` holds `rows_here` rows of
                // `nr`, and row*n+j0+nr <= m*n for a full tile.
                unsafe {
                    x86::write_row(
                        acc.as_ptr().add(i * nr + j),
                        ACT_ZERO * qw.row_sums[row],
                        qw.scales[row] * s_x,
                        ep.bias.map_or(0.0, |b| b[row]),
                        ep.relu,
                        c.0.add(row * n + j0 + j),
                    );
                }
            }
        }
        return;
    }
    let _ = kernel;
    for i in 0..rows_here {
        let row = rp * MR + i;
        for jj in 0..jcount {
            let idx = if tb {
                (j0 + jj) * m + row
            } else {
                row * n + (j0 + jj)
            };
            // SAFETY: idx < m*n by construction; disjointness per caller.
            unsafe { *c.0.add(idx) = dequant(acc[i * nr + jj], qw, row, s_x, ep) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gemm_ep, Epilogue as F32Epilogue};

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        // Same xorshift idiom as the GEMM proptests: deterministic, no deps.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every kernel the host can run, not only the one it dispatches;
    /// says which one it dispatches, which ones run and which ones it has
    /// to skip.
    fn kernels() -> Vec<Kernel> {
        println!("int8 kernel dispatched on this host: {}", kernel_name());
        for k in Kernel::ALL.iter().filter(|k| !k.supported()) {
            println!("host has no {}: that kernel is skipped", k.name());
        }
        let supported: Vec<Kernel> = Kernel::ALL
            .iter()
            .copied()
            .filter(|k| k.supported())
            .collect();
        let names: Vec<&str> = supported.iter().map(|k| k.name()).collect();
        println!("int8 kernels under test: {}", names.join(", "));
        supported
    }

    /// Per-element error bound for `qgemm` vs the exact f32 product:
    /// activation rounding (≤ s_x/2) against each |w|, weight rounding
    /// (≤ s_i/2) against each |x|, plus the cross term.
    fn error_bound(w_row: &[f32], x_col: &[f32], s_w: f32, s_x: f32) -> f32 {
        let wsum: f32 = w_row.iter().map(|v| v.abs()).sum();
        let xsum: f32 = x_col.iter().map(|v| v.abs()).sum();
        0.5 * s_x * wsum + 0.5 * s_w * xsum + 0.25 * s_x * s_w * w_row.len() as f32 + 1e-4
    }

    fn check_against_f32(
        m: usize,
        n: usize,
        k: usize,
        tb: bool,
        bias: bool,
        relu: bool,
        seed: u64,
    ) {
        let w = rand_vec(m * k, seed);
        let x = rand_vec(k * n, seed.wrapping_add(1));
        let bvec = rand_vec(m, seed.wrapping_add(2));
        let bias_opt = bias.then_some(&bvec[..]);
        let qw = QuantizedWeights::quantize(&w, m, k);
        let mut qc = vec![0f32; m * n];
        qgemm(&qw, &x, tb, n, &mut qc, bias_opt, relu);

        // f32 reference on the same operands/layout.
        let mut fc = vec![0f32; m * n];
        if tb {
            // x is [n, k]; reference C is [n, m] = x · wᵀ.
            gemm_ep(
                false,
                true,
                n,
                m,
                k,
                1.0,
                &x,
                &w,
                0.0,
                &mut fc,
                F32Epilogue {
                    bias_col: bias_opt,
                    relu,
                    ..Default::default()
                },
            );
        } else {
            gemm_ep(
                false,
                false,
                m,
                n,
                k,
                1.0,
                &w,
                &x,
                0.0,
                &mut fc,
                F32Epilogue {
                    bias_row: bias_opt,
                    relu,
                    ..Default::default()
                },
            );
        }

        let maxabs = x.iter().fold(0f32, |a, &v| a.max(v.abs()));
        let s_x = if maxabs > 0.0 { maxabs / ACT_QMAX } else { 0.0 };
        for row in 0..m {
            let wrow = &w[row * k..(row + 1) * k];
            for j in 0..n {
                let xcol: Vec<f32> = if tb {
                    x[j * k..(j + 1) * k].to_vec()
                } else {
                    (0..k).map(|kk| x[kk * n + j]).collect()
                };
                let bound = error_bound(wrow, &xcol, qw.scales[row], s_x);
                let (got, want) = if tb {
                    (qc[j * m + row], fc[j * m + row])
                } else {
                    (qc[row * n + j], fc[row * n + j])
                };
                // ReLU only shrinks the error, so the linear bound holds.
                assert!(
                    (got - want).abs() <= bound,
                    "({row},{j}) got {got} want {want} bound {bound} tb={tb}"
                );
            }
        }
    }

    #[test]
    fn matches_f32_gemm_conv_layout() {
        check_against_f32(17, 33, 29, false, false, false, 7);
        check_against_f32(32, 64, 48, false, true, false, 11);
        check_against_f32(5, 9, 3, false, true, true, 13);
    }

    #[test]
    fn matches_f32_gemm_linear_layout() {
        check_against_f32(19, 7, 31, true, false, false, 17);
        check_against_f32(24, 16, 40, true, true, true, 19);
        check_against_f32(3, 1, 10, true, true, false, 23);
    }

    #[test]
    fn tile_edge_sizes_are_exact_shapes() {
        for &(m, n, k) in &[(1, 1, 1), (4, 8, 4), (5, 9, 5), (8, 16, 8), (13, 25, 17)] {
            check_against_f32(m, n, k, false, true, true, 100 + m as u64);
        }
    }

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let w = rand_vec(23 * 41, 3);
        let qw = QuantizedWeights::quantize(&w, 23, 41);
        let back = qw.dequantize();
        for r in 0..23 {
            let s = qw.scales[r];
            for c in 0..41 {
                let err = (w[r * 41 + c] - back[r * 41 + c]).abs();
                assert!(
                    err <= s * 0.5 + 1e-7,
                    "row {r} col {c}: err {err} scale {s}"
                );
            }
        }
    }

    #[test]
    fn conv_order_only_moves_weights_inside_the_panel() {
        // 13 out × 6 in × 3×3: a partial channel group, a partial row panel.
        let w = rand_vec(13 * 6 * 9, 5);
        let flat = QuantizedWeights::quantize(&w, 13, 54);
        let conv = QuantizedWeights::quantize_conv(&w, 13, 6, 3, 3);
        assert_eq!(flat.scales, conv.scales);
        assert_eq!(flat.row_sums, conv.row_sums);
        assert_eq!(flat.dequantize(), conv.dequantize());
        assert_eq!(conv.kgroups, 2 * 9);
    }

    #[test]
    fn zero_matrix_quantizes_to_zero() {
        let w = vec![0f32; 12];
        let qw = QuantizedWeights::quantize(&w, 3, 4);
        assert!(qw.scales().iter().all(|&s| s == 0.0));
        let mut c = vec![1f32; 3 * 2];
        qgemm(&qw, &[1.0; 8], false, 2, &mut c, None, false);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_activations_yield_bias_only() {
        let w = rand_vec(8 * 6, 5);
        let qw = QuantizedWeights::quantize(&w, 8, 6);
        let bias: Vec<f32> = (0..8).map(|i| i as f32 - 4.0).collect();
        let mut c = vec![9f32; 8 * 3];
        qgemm(&qw, &[0f32; 6 * 3], false, 3, &mut c, Some(&bias), true);
        for i in 0..8 {
            for j in 0..3 {
                assert_eq!(c[i * 3 + j], bias[i].max(0.0));
            }
        }
    }

    #[test]
    fn scalar_and_dispatch_kernels_agree_bitwise() {
        // The i32 accumulators are exact integers, so every kernel compiled
        // in and detected here must produce bitwise-equal output to the
        // scalar one over the same packed operands — micro-kernels first,
        // then whole calls (which add each kernel's pack and write-back).
        // 17 rows: two full A panels and a one-row one, so a wide kernel
        // runs both its 16×16 and its 8×16 conv tile.
        let kernels = kernels();
        for m in [9, 17] {
            let (n, k) = (21, 14);
            let w = rand_vec(m * k, 31);
            let x = rand_vec(k * n, 37);
            let qw = QuantizedWeights::quantize(&w, m, k);
            let kgroups = qw.kgroups;
            let row_panels = m.div_ceil(MR);
            let bytes =
                |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 37 % 256) as u8).collect() };
            let bpanel = bytes(kgroups * GROUP_BYTES);
            for &kernel in &kernels {
                let name = kernel.name();
                for rp in 0..row_panels {
                    let (mut want, mut got) = ([7i32; MR * NR], [7i32; MR * NR]);
                    tile_scalar(kgroups, qw.panel(rp), &bpanel, &mut want);
                    kernel.tile(kgroups, qw.panel(rp), &bpanel, &mut got);
                    assert_eq!(want, got, "{name} tile, row panel {rp}");
                    let (mut want, mut got) = ([7i32; MR], [7i32; MR]);
                    matvec_scalar(kgroups, qw.panel(rp), &bpanel, &mut want);
                    kernel.matvec(kgroups, qw.panel(rp), &bpanel, &mut got);
                    assert_eq!(want, got, "{name} matvec, row panel {rp}");
                }
                // The conv tile, checked on each of its 8×8 quarters: the
                // quarter's A panel by the quarter's 8 columns of B.
                let nr = kernel.conv_cols();
                let wide_b = bytes(kgroups * nr * KG);
                for rp in (0..row_panels).step_by(kernel.conv_panels()) {
                    let panels = kernel.conv_panels().min(row_panels - rp);
                    let mut got = [7i32; CONV_TILE];
                    kernel.conv_tile(kgroups, qw.panels(rp, panels), &wide_b, &mut got);
                    for p in 0..panels {
                        for j0 in (0..nr).step_by(NR) {
                            let quarter_b: Vec<u8> = wide_b
                                .chunks_exact(nr * KG)
                                .flat_map(|g| &g[j0 * KG..(j0 + NR) * KG])
                                .copied()
                                .collect();
                            let mut want = [7i32; MR * NR];
                            tile_scalar(kgroups, qw.panel(rp + p), &quarter_b, &mut want);
                            for (i, want_row) in want.chunks_exact(NR).enumerate() {
                                let at = (p * MR + i) * nr + j0;
                                assert_eq!(
                                    want_row,
                                    &got[at..at + NR],
                                    "{name} {}×{nr} conv tile, row panel {rp}, quarter ({p}, {j0})",
                                    panels * MR
                                );
                            }
                        }
                    }
                }
                for tb in [false, true] {
                    let ep = Epilogue::new(None, false, m);
                    let (mut want, mut got) = (vec![0f32; m * n], vec![0f32; m * n]);
                    qgemm_with(Kernel::Scalar, &qw, &x, tb, n, &mut want, ep);
                    qgemm_with(kernel, &qw, &x, tb, n, &mut got, ep);
                    assert_eq!(want, got, "{name} qgemm tb={tb}");
                }
            }
        }
    }

    #[test]
    fn large_accumulation_does_not_saturate() {
        // Worst cases for the widening dot product over a deep k: operands
        // at the ends of their ranges, weights alternating (exact answer 0)
        // and all alike (every `maddubs` pair sum at its maximum, exact
        // answer k).
        let k = 1024;
        let x = vec![1.0f32; k];
        let mut ws = Workspace::new();
        for (alternate, exact) in [(true, 0.0), (false, k as f32)] {
            let w: Vec<f32> = (0..k)
                .map(|i| if alternate && i % 2 == 1 { -1.0 } else { 1.0 })
                .collect();
            let qw = QuantizedWeights::quantize(&w, 1, k);
            for kernel in kernels() {
                let mut c = vec![0f32; 1];
                qgemm_with(
                    kernel,
                    &qw,
                    &x,
                    false,
                    1,
                    &mut c,
                    Epilogue::new(None, false, 1),
                );
                assert!((c[0] - exact).abs() < 1e-3, "{}: {}", kernel.name(), c[0]);
                qlinear_with(kernel, &qw, &x, &mut c, None, false, &mut ws);
                assert!((c[0] - exact).abs() < 1e-3, "{}: {}", kernel.name(), c[0]);
            }
        }
    }

    /// The oracle: `im2col` → `qgemm` on the scalar kernel, sample by sample.
    fn conv_oracle(
        w: &[f32],
        spec: &Conv2dSpec,
        input: &[f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) -> Vec<f32> {
        let (k, cols) = (spec.col_rows(), spec.col_cols());
        let qw = QuantizedWeights::quantize(w, spec.out_c, k);
        let img_len = spec.in_c * spec.in_h * spec.in_w;
        let mut col = vec![0f32; k * cols];
        let mut out = vec![0f32; input.len() / img_len * spec.out_c * cols];
        let ep = Epilogue::new(bias, relu, spec.out_c);
        for (img, o) in input
            .chunks_exact(img_len)
            .zip(out.chunks_exact_mut(spec.out_c * cols))
        {
            im2col(spec, img, &mut col);
            qgemm_with(Kernel::Scalar, &qw, &col, false, cols, o, ep);
        }
        out
    }

    #[test]
    fn conv_equals_im2col_then_qgemm_bitwise() {
        let mut ws = Workspace::new();
        let mut seed = 0;
        // (kernel size, pad, stride); 5×7 rows are narrower than a vector,
        // 9×9 rows take the overlapping last block.
        for (ksize, pad, stride) in [(1, 0, 1), (3, 1, 1), (3, 0, 1), (3, 1, 2)] {
            for (h, w) in [(5, 7), (9, 9)] {
                for (in_c, out_c) in [(3, 5), (6, 12), (8, 16), (16, 32), (32, 32)] {
                    for batch in [1, 2, 3, 8] {
                        seed += 1;
                        let spec = Conv2dSpec {
                            in_c,
                            out_c,
                            in_h: h,
                            in_w: w,
                            kh: ksize,
                            kw: ksize,
                            stride,
                            pad,
                        };
                        let weights = rand_vec(out_c * spec.col_rows(), seed);
                        let mut input = rand_vec(batch * in_c * h * w, seed + 1000);
                        // Samples of different magnitude: a shared scale
                        // would show.
                        for (bi, img) in input.chunks_mut(in_c * h * w).enumerate() {
                            img.iter_mut().for_each(|v| *v *= (bi + 1) as f32);
                        }
                        let bvec = rand_vec(out_c, seed + 2000);
                        let (bias, relu) = ((seed % 2 == 0).then_some(&bvec[..]), seed % 3 == 0);
                        let want = conv_oracle(&weights, &spec, &input, bias, relu);
                        let qw =
                            QuantizedWeights::quantize_conv(&weights, out_c, in_c, ksize, ksize);
                        for kernel in kernels() {
                            let mut got = vec![f32::NAN; want.len()];
                            qconv2d_with(kernel, &qw, &spec, &input, &mut got, bias, relu, &mut ws);
                            assert_eq!(
                                bits(&want),
                                bits(&got),
                                "{} {spec:?} batch {batch}",
                                kernel.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn linear_equals_qgemm_row_by_row_bitwise() {
        let mut ws = Workspace::new();
        for (seed, &(m, n, k)) in [(5, 1, 37), (81, 3, 324), (12, 8, 40), (1, 9, 32)]
            .iter()
            .enumerate()
        {
            let seed = seed as u64 * 10;
            let w = rand_vec(m * k, seed + 1);
            let mut x = rand_vec(n * k, seed + 2);
            for (j, row) in x.chunks_mut(k).enumerate() {
                row.iter_mut().for_each(|v| *v *= (j + 1) as f32);
            }
            let bias = rand_vec(m, seed + 3);
            let qw = QuantizedWeights::quantize(&w, m, k);
            let ep = Epilogue::new(Some(&bias), true, m);
            let mut want = vec![0f32; n * m];
            for (row, o) in x.chunks_exact(k).zip(want.chunks_exact_mut(m)) {
                qgemm_with(Kernel::Scalar, &qw, row, true, 1, o, ep);
            }
            for kernel in kernels() {
                let mut got = vec![f32::NAN; n * m];
                qlinear_with(kernel, &qw, &x, &mut got, Some(&bias), true, &mut ws);
                assert_eq!(bits(&want), bits(&got), "{} {m}x{n}x{k}", kernel.name());
            }
        }
    }

    #[test]
    fn non_finite_activations_quantize_alike_on_every_path() {
        // Element level: NaN is the zero point, ±inf the ends of the clamp,
        // from the scalar quantizer and from the vector one.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5];
        assert_eq!(specials.map(|v| quantize_act(v, 2.0)), [128, 255, 1, 129]);
        let x: Vec<f32> = specials.iter().cycle().take(19).copied().collect();
        let want: Vec<u8> = x.iter().map(|&v| quantize_act(v, 2.0)).collect();
        for kernel in kernels() {
            let mut got = vec![0u8; x.len()];
            quantize_flat(kernel, &x, 2.0, &mut got);
            assert_eq!(want, got, "{} quantize_flat", kernel.name());
        }

        // Call level: one special value in a 4×9 all-ones matrix under a
        // 1×4 all-ones weight, placed in a full panel (column 0) and in the
        // ragged one (column 8). The same matrix reaches the kernels through
        // the direct pack, the linear pack (transposed) and, as a 4-channel
        // 1×9 image under a 1×1 kernel, the conv gather; all must agree
        // with the scalar kernel's direct pack, whichever kernel runs.
        let (k, n) = (4, 9);
        let qw = QuantizedWeights::quantize(&[1.0; 4], 1, k);
        let spec = Conv2dSpec {
            in_c: k,
            out_c: 1,
            in_h: 1,
            in_w: n,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let ep = Epilogue::new(None, false, 1);
        let mut ws = Workspace::new();
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for col in [0, 8] {
                let mut x = vec![1.0f32; k * n];
                x[2 * n + col] = special;
                let xt: Vec<f32> = (0..n * k).map(|i| x[i % k * n + i / k]).collect();
                let mut want = vec![0f32; n];
                qgemm_with(Kernel::Scalar, &qw, &x, false, n, &mut want, ep);
                if special.is_nan() {
                    // NaN is left out of the scale and adds nothing.
                    let mut expect = [4.0f32; 9];
                    expect[col] = 3.0;
                    assert_eq!(want, expect);
                }
                for kernel in kernels() {
                    let what = format!("{} {special} in column {col}", kernel.name());
                    let mut got = vec![0f32; n];
                    qgemm_with(kernel, &qw, &x, false, n, &mut got, ep);
                    assert_eq!(bits(&want), bits(&got), "direct pack, {what}");
                    qgemm_with(kernel, &qw, &xt, true, n, &mut got, ep);
                    assert_eq!(bits(&want), bits(&got), "linear pack, {what}");
                    qconv2d_with(kernel, &qw, &spec, &x, &mut got, None, false, &mut ws);
                    assert_eq!(bits(&want), bits(&got), "conv gather, {what}");
                    // One column alone is one sample of a linear layer.
                    let (mut one, mut lin) = ([0f32], [0f32]);
                    qgemm_with(
                        Kernel::Scalar,
                        &qw,
                        &xt[col * k..][..k],
                        true,
                        1,
                        &mut one,
                        ep,
                    );
                    qlinear_with(
                        kernel,
                        &qw,
                        &xt[col * k..][..k],
                        &mut lin,
                        None,
                        false,
                        &mut ws,
                    );
                    assert_eq!(bits(&one), bits(&lin), "matrix-vector, {what}");
                }
            }
        }
    }
}
