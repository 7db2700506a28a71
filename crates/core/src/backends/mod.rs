//! Concrete backend adapters, one per library plus the handwritten
//! baseline. Each realises the Table-II operator set with the calls the
//! paper identifies for that library.

pub mod arrayfire;
pub mod boost;
pub mod handwritten_backend;
pub mod thrust;

pub use arrayfire::ArrayFireBackend;
pub use boost::BoostBackend;
pub use handwritten_backend::HandwrittenBackend;
pub use thrust::ThrustBackend;

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
        other => panic!("unknown paper backend: {other}"),
    }
}
