//! Concrete backend adapters. Each realises the Table-II operator set with
//! the calls the paper identifies for its library.
//!
//! Thrust and Boost.Compute expose the same eager algorithm surface
//! ([`gpu_sim::eager`]), so their operator chains are written once, in
//! [`EagerBackend`]; [`thrust`] and [`boost`] only implement [`EagerLib`]
//! for the library's launch profile: its name and how to make it cold.
//! Any other eager library plugs in the same way, out of tree too
//! (`examples/plug_in_library.rs`). [`arrayfire`]
//! (lazy, JIT-fused) and the [`handwritten_backend`] baseline implement
//! [`GpuBackend`](crate::backend::GpuBackend) directly. What makes any of
//! them *correct* is one list: the `conformance` suite, run over all of
//! [`PAPER_BACKENDS`].

pub mod arrayfire;
pub mod boost;
#[cfg(test)]
mod conformance;
mod eager;
pub mod handwritten_backend;
pub mod thrust;

pub use arrayfire::ArrayFireBackend;
pub use boost::BoostBackend;
pub use eager::{EagerBackend, EagerLib};
pub use handwritten_backend::HandwrittenBackend;
pub use thrust::ThrustBackend;

use crate::backend::{check_dtype, Col, ColType, Pred};
use crate::ops::{CmpOp, Connective};
use gpu_sim::hostexec::expr::Leaf;
use gpu_sim::hostexec::{self, Counts, Lane, Rhs, RowPred, Selected};
use gpu_sim::{BufferId, Contents, Device, DeviceBuffer, DeviceCopy, Readable, Result, SimError};

/// A column element type, as [`ColType`] names it.
trait Element: DeviceCopy {
    const DTYPE: ColType;
}

impl Element for u32 {
    const DTYPE: ColType = ColType::U32;
}

impl Element for f64 {
    const DTYPE: ColType = ColType::F64;
}

/// How the shared host kernels and charge replays read an adapter's
/// columns: each through the device buffer behind it.
trait Buffers {
    /// The buffer behind `col`, once `col` is this adapter's and holds
    /// `T`s.
    fn buffer<'c, T: DeviceCopy>(&self, col: &'c Col) -> Result<&'c DeviceBuffer<T>>;

    /// `col` read in place, each row widened to `f64` where it is used —
    /// a leaf of a fused kernel's zip iterator or a selection predicate's
    /// column — and the buffer behind it, for kernel footprints. `u32`
    /// widens exactly as `dense_mask` does, so a comparison sees the same
    /// operand values on every path. A shape-only column has no lane:
    /// [`SimError::ShapeOnly`].
    fn lane<'c>(&self, col: &'c Col) -> Result<(Lane<'c>, BufferId)> {
        Ok(match col.dtype() {
            ColType::U32 => {
                let buf = self.buffer::<u32>(col)?;
                (Lane::U32(buf.data()?), buf.id())
            }
            ColType::F64 => {
                let buf = self.buffer::<f64>(col)?;
                (Lane::F64(buf.data()?), buf.id())
            }
        })
    }

    /// `cols` read in place ([`Self::lane`]), and the buffers behind them.
    fn lanes<'c>(&self, cols: &[&'c Col]) -> Result<(Vec<Lane<'c>>, Vec<BufferId>)> {
        let lanes = cols.iter().map(|c| self.lane(c));
        Ok(lanes.collect::<Result<Vec<_>>>()?.into_iter().unzip())
    }

    /// [`Device::reads`] over `cols`: what an operator whose steps read
    /// its inputs one after another checks before its first step charges
    /// anything.
    fn check_reads(&self, device: &Device, cols: &[&Col]) -> Result<()> {
        let inputs = cols.iter().map(|&c| -> Result<&dyn Readable> {
            Ok(match c.dtype() {
                ColType::U32 => self.buffer::<u32>(c)?,
                ColType::F64 => self.buffer::<f64>(c)?,
            })
        });
        device.reads(&inputs.collect::<Result<Vec<_>>>()?)
    }
}

/// `SizeMismatch` unless two operands are equally long.
fn equal_len(left: usize, right: usize) -> Result<()> {
    if left == right {
        Ok(())
    } else {
        Err(SimError::SizeMismatch { left, right })
    }
}

/// The common row count of a selection's predicate columns; an empty list
/// and columns of different lengths are the caller's error.
fn same_len(preds: &[Pred<'_>]) -> Result<usize> {
    let Some(first) = preds.first() else {
        return Err(SimError::Unsupported("empty predicate list".into()));
    };
    let n = first.col.len();
    preds.iter().try_for_each(|p| equal_len(n, p.col.len()))?;
    Ok(n)
}

/// The operands of `filter_sum_product`, checked before anything touches
/// the device: at least one predicate, and its columns, `a` and `b` all of
/// one length.
fn check_sum_product(a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<()> {
    let n = same_len(preds)?;
    equal_len(n, a.len())?;
    equal_len(n, b.len())
}

/// The operands of a keyed operator, checked likewise: `u32` keys and
/// `f64` values, equally long.
fn check_keyed(keys: &Col, vals: &Col) -> Result<()> {
    check_dtype(keys, ColType::U32)?;
    check_dtype(vals, ColType::F64)?;
    equal_len(keys.len(), vals.len())
}

/// `preds` as host row predicates, `lanes[i]` being the stored column of
/// `preds[i]` read in place.
fn row_preds<'a>(lanes: &[Lane<'a>], preds: &[Pred<'_>]) -> Vec<RowPred<'a>> {
    lanes
        .iter()
        .zip(preds)
        .map(|(&col, p)| RowPred {
            col,
            cmp: p.cmp.into(),
            rhs: Rhs::Lit(p.lit),
        })
        .collect()
}

/// `lanes` as the leaves of an expression program.
fn leaves<'a>(lanes: &[Lane<'a>]) -> Vec<Leaf<'a>> {
    lanes.iter().map(|&lane| lane.into()).collect()
}

/// Bytes one row of `cols` occupies.
fn row_width<'a>(cols: impl IntoIterator<Item = &'a Col>) -> usize {
    cols.into_iter().map(|c| c.dtype().width()).sum()
}

/// The row ids a selection keeps — shape-only inside a dry scope — and
/// the counts its charges read.
type Kept = (Contents<u32>, Counts);

/// The rows `preds` keep — all of them (`all`) or any — with the
/// per-predicate counts a chain of materialised intermediates is charged
/// by. Inside `device`'s dry scope only the counts are real: the ids are
/// shape-only of the kept length ([`hostexec::count_rows`]).
fn kept(device: &Device, preds: &[RowPred<'_>], all: bool) -> Kept {
    device.body(
        || {
            let Selected { ids, each, prefix } = hostexec::select_rows(preds, all);
            (ids.into(), Counts { each, prefix })
        },
        || {
            let counts = hostexec::count_rows(preds, all);
            (Contents::Shape(counts.kept()), counts)
        },
    )
}

/// The distinct keys of `keys`, ascending, and per key the sum of its
/// `vals` folded in row order from `seed` ([`hostexec::grouped_sum`]).
/// Inside `device`'s dry scope both are shape-only of the group count
/// ([`hostexec::distinct_keys`]), which reads the keys alone: they must
/// hold data there, and outside the scope so must the values.
fn group_sums(
    device: &Device,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<f64>,
    seed: f64,
) -> Result<(Contents<u32>, Contents<f64>)> {
    let key_data = keys.data()?;
    device.reads(&[vals])?;
    Ok(device.body(
        || {
            let (keys, sums) = hostexec::grouped_sum(key_data, vals.host(), seed);
            (keys.into(), sums.into())
        },
        || {
            let groups = hostexec::distinct_keys(key_data);
            (Contents::Shape(groups), Contents::Shape(groups))
        },
    ))
}

/// The rows `preds` keep under `conn` ([`kept`] on `device`), and the
/// buffer behind each predicate's column.
fn select(
    device: &Device,
    b: &impl Buffers,
    preds: &[Pred<'_>],
    conn: Connective,
) -> Result<(Kept, Vec<BufferId>)> {
    let cols: Vec<&Col> = preds.iter().map(|p| p.col).collect();
    let (lanes, bufs) = b.lanes(&cols)?;
    let all = conn == Connective::And;
    Ok((kept(device, &row_preds(&lanes, preds), all), bufs))
}

/// The rows where `a cmp b` holds between two equally long columns
/// ([`kept`] on `device`), and the buffers behind them.
fn select_cmp_cols(
    device: &Device,
    buffers: &impl Buffers,
    a: &Col,
    b: &Col,
    cmp: CmpOp,
) -> Result<(Contents<u32>, [BufferId; 2])> {
    equal_len(a.len(), b.len())?;
    let ((la, ia), (lb, ib)) = (buffers.lane(a)?, buffers.lane(b)?);
    let pred = RowPred {
        col: la,
        cmp: cmp.into(),
        rhs: Rhs::Col(lb),
    };
    Ok((kept(device, &[pred], true).0, [ia, ib]))
}

/// The paper's backend line-up, in registration order (the order every
/// experiment iterates and every table prints).
pub const PAPER_BACKENDS: [&str; 4] = ["ArrayFire", "Boost.Compute", "Thrust", "Handwritten"];

/// Construct one paper backend by name on `device`.
///
/// This is the cheap per-cell constructor the parallel benchmark grid
/// uses: an independent experiment cell builds exactly the backend it
/// measures on a fresh device instead of a whole
/// [`Framework`](crate::framework::Framework). Constructing a backend
/// performs no device work, so a backend built alone starts in the same
/// state as one built alongside the full line-up.
///
/// # Panics
/// On an unknown name — the set of paper backends is closed
/// ([`PAPER_BACKENDS`]); plug-in backends register through
/// [`Framework::register`](crate::framework::Framework::register).
pub fn make_backend(
    name: &str,
    device: &std::sync::Arc<gpu_sim::Device>,
) -> Box<dyn crate::backend::GpuBackend> {
    match name {
        "ArrayFire" => Box::new(ArrayFireBackend::new(device)),
        "Boost.Compute" => Box::new(BoostBackend::new(device)),
        "Thrust" => Box::new(ThrustBackend::new(device)),
        "Handwritten" => Box::new(HandwrittenBackend::new(device)),
        // INVARIANT: callers name a backend from `PAPER_BACKENDS`; the
        // frozen `Framework::single_backend` has no `Result` to carry a
        // refusal, so an unknown name is a caller bug (`# Panics`).
        #[allow(clippy::panic)]
        other => panic!("unknown paper backend: {other}"),
    }
}
