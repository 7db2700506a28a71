//! The paper's library survey — Table I.
//!
//! "In total, we found 43 libraries that provide GPU-accelerated operators
//! for various domains" (§III-A), collected from Google, Google Scholar and
//! the CUDA site, over the low-level languages CUDA/ROCm and the wrappers
//! OpenCL/OneAPI. This module encodes the catalogue so experiment E1
//! regenerates the table and its grouped counts.

use serde::{Deserialize, Serialize};

/// Substrate a library is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Substrate {
    /// NVIDIA CUDA.
    Cuda,
    /// OpenCL wrapper.
    OpenCl,
    /// Available over both CUDA and OpenCL.
    CudaAndOpenCl,
}

impl Substrate {
    /// Table I rendering.
    pub fn label(self) -> &'static str {
        match self {
            Substrate::Cuda => "CUDA",
            Substrate::OpenCl => "OpenCL",
            Substrate::CudaAndOpenCl => "CUDA & OpenCL",
        }
    }
}

/// Application domain of a surveyed library (Table I "Use case").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UseCase {
    /// Math / linear algebra / FFT / solvers.
    Math,
    /// Database operators.
    DatabaseOperators,
    /// Deep learning.
    DeepLearning,
    /// Image and video processing.
    ImageAndVideo,
    /// Generic parallel algorithms.
    ParallelAlgorithms,
    /// Communication libraries.
    Communication,
    /// Everything else (wrappers, vector processing, domain SDKs).
    Other,
}

impl UseCase {
    /// Table I rendering.
    pub fn label(self) -> &'static str {
        match self {
            UseCase::Math => "Math",
            UseCase::DatabaseOperators => "Database operators",
            UseCase::DeepLearning => "Deep learning",
            UseCase::ImageAndVideo => "Image and video",
            UseCase::ParallelAlgorithms => "Parallel algorithms",
            UseCase::Communication => "Communication libraries",
            UseCase::Other => "Others",
        }
    }
}

/// One surveyed library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LibraryEntry {
    /// Library name.
    pub name: &'static str,
    /// Substrate it is built on.
    pub substrate: Substrate,
    /// Primary application domain.
    pub use_case: UseCase,
}

const fn lib(name: &'static str, substrate: Substrate, use_case: UseCase) -> LibraryEntry {
    LibraryEntry {
        name,
        substrate,
        use_case,
    }
}

/// Table I: the 43 surveyed libraries.
pub const SURVEY: [LibraryEntry; 43] = [
    lib("AmgX", Substrate::Cuda, UseCase::Math),
    lib(
        "ArrayFire",
        Substrate::CudaAndOpenCl,
        UseCase::DatabaseOperators,
    ),
    lib(
        "Boost.Compute",
        Substrate::OpenCl,
        UseCase::DatabaseOperators,
    ),
    lib("CHOLMOD", Substrate::Cuda, UseCase::Math),
    lib("cuBLAS", Substrate::Cuda, UseCase::Math),
    lib("CUDA math lib", Substrate::Cuda, UseCase::Math),
    lib("cuDNN", Substrate::Cuda, UseCase::DeepLearning),
    lib("cuFFT", Substrate::Cuda, UseCase::Math),
    lib("cuRAND", Substrate::Cuda, UseCase::Math),
    lib("cuSOLVER", Substrate::Cuda, UseCase::Math),
    lib("cuSPARSE", Substrate::Cuda, UseCase::Math),
    lib("cuTENSOR", Substrate::Cuda, UseCase::Math),
    lib("DALI", Substrate::Cuda, UseCase::DeepLearning),
    lib("DeepStream SDK", Substrate::Cuda, UseCase::DeepLearning),
    lib("EPGPU", Substrate::OpenCl, UseCase::ParallelAlgorithms),
    lib("Gunrock", Substrate::Cuda, UseCase::ParallelAlgorithms),
    lib(
        "IMSL Fortran Numerical Library",
        Substrate::Cuda,
        UseCase::Math,
    ),
    lib("Jarvis", Substrate::Cuda, UseCase::DeepLearning),
    lib("MAGMA", Substrate::Cuda, UseCase::Math),
    lib("NCCL", Substrate::Cuda, UseCase::Communication),
    lib("nvGRAPH", Substrate::Cuda, UseCase::ParallelAlgorithms),
    lib("NVIDIA Codec SDK", Substrate::Cuda, UseCase::ImageAndVideo),
    lib(
        "NVIDIA Optical Flow SDK",
        Substrate::Cuda,
        UseCase::ImageAndVideo,
    ),
    lib(
        "NVIDIA Performance Primitives",
        Substrate::Cuda,
        UseCase::ImageAndVideo,
    ),
    lib("nvJPEG", Substrate::Cuda, UseCase::ImageAndVideo),
    lib("NVSHMEM", Substrate::Cuda, UseCase::Communication),
    lib("OCL-Library", Substrate::OpenCl, UseCase::DatabaseOperators),
    lib("OpenCLHelper", Substrate::OpenCl, UseCase::Other),
    lib("OpenCV", Substrate::CudaAndOpenCl, UseCase::ImageAndVideo),
    lib("SkelCL", Substrate::OpenCl, UseCase::DatabaseOperators),
    lib("TensorRT", Substrate::Cuda, UseCase::DeepLearning),
    lib("Thrust", Substrate::Cuda, UseCase::DatabaseOperators),
    lib("Triton Ocean SDK", Substrate::Cuda, UseCase::Other),
    lib("VexCL", Substrate::OpenCl, UseCase::Math),
    lib("ViennaCL", Substrate::OpenCl, UseCase::Math),
    lib("CUB", Substrate::Cuda, UseCase::ParallelAlgorithms),
    lib("moderngpu", Substrate::Cuda, UseCase::ParallelAlgorithms),
    lib("CUDPP", Substrate::Cuda, UseCase::ParallelAlgorithms),
    lib("cuphy", Substrate::Cuda, UseCase::Communication),
    lib("OptiX", Substrate::Cuda, UseCase::ImageAndVideo),
    lib("PhysX", Substrate::Cuda, UseCase::Other),
    lib("VisionWorks", Substrate::Cuda, UseCase::ImageAndVideo),
    lib("cuGraph", Substrate::Cuda, UseCase::ParallelAlgorithms),
];

/// Count surveyed libraries per use case.
pub(crate) fn count_by_use_case() -> Vec<(UseCase, usize)> {
    let cases = [
        UseCase::Math,
        UseCase::ImageAndVideo,
        UseCase::ParallelAlgorithms,
        UseCase::DeepLearning,
        UseCase::DatabaseOperators,
        UseCase::Communication,
        UseCase::Other,
    ];
    cases
        .into_iter()
        .map(|c| (c, SURVEY.iter().filter(|l| l.use_case == c).count()))
        .collect()
}

/// The libraries the paper selects for the study: DB-operator libraries
/// with pre-written functions (excludes the OpenCL boilerplates SkelCL and
/// OCL-Library).
pub fn selected_for_study() -> Vec<&'static LibraryEntry> {
    SURVEY
        .iter()
        .filter(|l| {
            l.use_case == UseCase::DatabaseOperators && !matches!(l.name, "SkelCL" | "OCL-Library")
        })
        .collect()
}

/// Render Table I as text.
pub fn render_table() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE I: Libraries and their properties based on our survey\n"
    );
    let _ = writeln!(out, "{:<32} {:<16} Use case", "Library", "Wrapper/Language");
    let _ = writeln!(out, "{}", "-".repeat(75));
    for l in &SURVEY {
        let _ = writeln!(
            out,
            "{:<32} {:<16} {}",
            l.name,
            l.substrate.label(),
            l.use_case.label()
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(75));
    for (case, n) in count_by_use_case() {
        let _ = writeln!(out, "{:<32} {}", case.label(), n);
    }
    let _ = writeln!(out, "{:<32} {}", "Total", SURVEY.len());
    out
}

/// Render the paper's Figure 1: the hierarchy of abstraction levels for
/// heterogeneous computing, with the trade-offs each level makes.
pub fn render_hierarchy() -> String {
    let mut out = String::new();
    out.push_str("Fig. 1: Hierarchy of abstraction levels characterizing languages,\n");
    out.push_str("wrappers, and libraries for heterogeneous computing\n\n");
    out.push_str(concat!(
        "                 flexibility ↑          development time ↓\n",
        "  ┌───────────────────────────────────────────────────────────┐\n",
        "  │ Libraries            Thrust · Boost.Compute · ArrayFire   │  low expertise,\n",
        "  │                      cuBLAS · cuDNN · OpenCV · …          │  low optimisation\n",
        "  ├───────────────────────────────────────────────────────────┤  capability\n",
        "  │ Specialized wrappers OpenCL · OpenMP · Cilk · oneAPI      │\n",
        "  ├───────────────────────────────────────────────────────────┤\n",
        "  │ Low-level languages  CUDA · ROCm · SSE/AVX intrinsics     │  high expertise,\n",
        "  └───────────────────────────────────────────────────────────┘  best performance\n",
        "                 flexibility ↓          development time ↑\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_names_the_three_levels() {
        let h = render_hierarchy();
        for needle in [
            "Libraries",
            "Specialized wrappers",
            "Low-level languages",
            "CUDA",
            "OpenCL",
            "Thrust",
        ] {
            assert!(h.contains(needle), "{needle} missing from Figure 1");
        }
    }

    #[test]
    fn survey_has_43_libraries() {
        assert_eq!(SURVEY.len(), 43);
        // No duplicate names.
        let mut names: Vec<&str> = SURVEY.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 43);
    }

    #[test]
    fn counts_match_the_papers_figures() {
        let counts: std::collections::HashMap<_, _> = count_by_use_case().into_iter().collect();
        // §III-A: "many libraries focus on image processing (7) and math
        // operations (13)" and "only 5" database-operator libraries.
        assert_eq!(counts[&UseCase::Math], 13);
        assert_eq!(counts[&UseCase::ImageAndVideo], 7);
        assert_eq!(counts[&UseCase::DatabaseOperators], 5);
        let total: usize = counts.values().sum();
        assert_eq!(total, 43);
    }

    #[test]
    fn study_selects_the_three_libraries() {
        let sel = selected_for_study();
        let names: Vec<&str> = sel.iter().map(|l| l.name).collect();
        assert_eq!(names, vec!["ArrayFire", "Boost.Compute", "Thrust"]);
    }

    #[test]
    fn rendered_table_contains_all_entries() {
        let t = render_table();
        assert!(t.contains("TABLE I"));
        for l in &SURVEY {
            assert!(t.contains(l.name), "{} missing", l.name);
        }
        assert!(t.contains("Total"));
    }
}
