//! The evaluated system configurations (paper §5, configs 1-9, plus the
//! §3.3 page-size sweep and the §5.2 SA/migration variants).
//!
//! A [`ConfigKind`] bundles a paging policy with the machine features it
//! assumes (translation hardware, PTE placement), so every experiment
//! builds runs the same way.

use clap_core::Clap;
use mcm_policies::{
    fbarre, ideal, mgvm, s2m, s4k, s64k, sa_2m, sa_64k, static_paging, CNuma, Grit, Placement,
};
use mcm_sim::{
    AllocInfo, PagingPolicy, PlacementModel, PtePlacement, SimConfig, TranslationConfig,
};
use mcm_types::PageSize;

/// One named configuration of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigKind {
    /// Static paging, first-touch, at the given (possibly hypothetical)
    /// native page size (§3.3 sweep; S-64KB and S-2MB are configs 1-2).
    Static(PageSize),
    /// Config 3: Ideal C-NUMA.
    CNuma,
    /// Config 4: Ideal C-NUMA with intermediate page sizes.
    CNumaInter,
    /// Config 5: GRIT (ideal migration).
    Grit,
    /// Config 6: MGvm (requester-local PTE placement).
    Mgvm,
    /// Config 7: Barre-Chord (pattern-coalescing TLBs).
    FBarre,
    /// Config 8: CLAP.
    Clap,
    /// Config 9: the Ideal upper bound.
    Ideal,
    /// §5.2: SA placement at a fixed size.
    StaticAnalysis(PageSize),
    /// §5.2: CLAP-SA.
    ClapSa,
    /// §5.2: CLAP-SA++.
    ClapSaPlusPlus,
    /// §5.2 Fig. 20: CLAP with selective migration (real costs).
    ClapMigration,
    /// §5.2 Fig. 20: C-NUMA with real migration costs.
    CNumaReal,
    /// §5.2 Fig. 20: GRIT with real migration costs.
    GritReal,
    /// Ablation: CLAP with a non-default PMM threshold, in percent (§4.2
    /// sensitivity study).
    ClapPmm(u8),
    /// Ablation: CLAP without opportunistic large paging.
    ClapNoOlp,
    /// Ablation: CLAP without the Remote Tracker's Eq. 4 relaxation.
    ClapNoRt,
}

impl ConfigKind {
    /// Display name, matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            ConfigKind::Static(s) => format!("S-{s}"),
            ConfigKind::CNuma => "Ideal_C-NUMA".into(),
            ConfigKind::CNumaInter => "Ideal_C-NUMA+inter".into(),
            ConfigKind::Grit => "GRIT".into(),
            ConfigKind::Mgvm => "MGvm".into(),
            ConfigKind::FBarre => "F-Barre".into(),
            ConfigKind::Clap => "CLAP".into(),
            ConfigKind::Ideal => "Ideal".into(),
            ConfigKind::StaticAnalysis(s) => format!("SA-{s}"),
            ConfigKind::ClapSa => "CLAP-SA".into(),
            ConfigKind::ClapSaPlusPlus => "CLAP-SA++".into(),
            ConfigKind::ClapMigration => "CLAP+migration".into(),
            ConfigKind::CNumaReal => "C-NUMA".into(),
            ConfigKind::GritReal => "GRIT(real)".into(),
            ConfigKind::ClapPmm(p) => format!("CLAP-pmm{p}%"),
            ConfigKind::ClapNoOlp => "CLAP-noOLP".into(),
            ConfigKind::ClapNoRt => "CLAP-noRT".into(),
        }
    }

    /// The nine configurations of the main evaluation (Fig. 18), in the
    /// paper's order.
    pub fn main_eval() -> Vec<ConfigKind> {
        vec![
            ConfigKind::Static(PageSize::Size64K),
            ConfigKind::Static(PageSize::Size2M),
            ConfigKind::CNuma,
            ConfigKind::CNumaInter,
            ConfigKind::Grit,
            ConfigKind::Mgvm,
            ConfigKind::FBarre,
            ConfigKind::Clap,
            ConfigKind::Ideal,
        ]
    }

    /// The ten configurations with a closed-form placement model, in the
    /// order analytic sweeps evaluate them.
    pub fn analytic_eval() -> Vec<ConfigKind> {
        vec![
            ConfigKind::Static(PageSize::Size4K),
            ConfigKind::Static(PageSize::Size64K),
            ConfigKind::Static(PageSize::Size2M),
            ConfigKind::StaticAnalysis(PageSize::Size64K),
            ConfigKind::StaticAnalysis(PageSize::Size2M),
            ConfigKind::Mgvm,
            ConfigKind::FBarre,
            ConfigKind::Clap,
            ConfigKind::ClapSa,
            ConfigKind::Ideal,
        ]
    }

    /// Closed-form placement model of this configuration for the
    /// analytic engine — `None` when the configuration's behaviour is
    /// dominated by reactive migration (C-NUMA, GRIT, the real-cost
    /// migration variants), which has no closed form; those cells fall
    /// back to the cycle engine under `--engine analytic`.
    ///
    /// The CLAP family shares one first-order approximation (per-structure
    /// OLP-style size selection + first touch); ablation knobs like the
    /// PMM threshold are below the model's resolution.
    pub fn placement_model(self, allocs: &[AllocInfo], chiplets: usize) -> Option<PlacementModel> {
        match self {
            ConfigKind::Static(s) => Some(PlacementModel::FirstTouch { page: s }),
            ConfigKind::StaticAnalysis(s) => Some(PlacementModel::StaticAnalysis { page: s }),
            ConfigKind::Mgvm | ConfigKind::FBarre | ConfigKind::Ideal => {
                Some(PlacementModel::FirstTouch {
                    page: PageSize::Size64K,
                })
            }
            ConfigKind::Clap
            | ConfigKind::ClapSa
            | ConfigKind::ClapSaPlusPlus
            | ConfigKind::ClapPmm(_)
            | ConfigKind::ClapNoOlp
            | ConfigKind::ClapNoRt => Some(PlacementModel::clap(allocs, chiplets)),
            ConfigKind::CNuma
            | ConfigKind::CNumaInter
            | ConfigKind::Grit
            | ConfigKind::ClapMigration
            | ConfigKind::CNumaReal
            | ConfigKind::GritReal => None,
        }
    }

    /// Builds the policy and the machine configuration for a run.
    pub fn build(self, base: &SimConfig) -> (Box<dyn PagingPolicy>, SimConfig) {
        let mut cfg = base.clone();
        match self {
            ConfigKind::Static(size) => {
                if !size.is_native() {
                    cfg.translation = TranslationConfig::with_native_size(size);
                }
                (Box::new(static_paging(size, Placement::FirstTouch)), cfg)
            }
            ConfigKind::CNuma => (Box::new(CNuma::new()), cfg),
            ConfigKind::CNumaInter => {
                cfg.translation = TranslationConfig::with_clap_coalescing();
                (Box::new(CNuma::with_intermediate_sizes()), cfg)
            }
            ConfigKind::Grit => (Box::new(Grit::new()), cfg),
            ConfigKind::Mgvm => {
                cfg.pte_placement = PtePlacement::RequesterLocal;
                (Box::new(mgvm()), cfg)
            }
            ConfigKind::FBarre => {
                cfg.translation.barre_pattern = true;
                (Box::new(fbarre()), cfg)
            }
            ConfigKind::Clap => {
                cfg.translation = Clap::translation();
                (Box::new(Clap::new()), cfg)
            }
            ConfigKind::Ideal => {
                cfg.translation.ideal_2m_reach = true;
                (Box::new(ideal()), cfg)
            }
            ConfigKind::StaticAnalysis(size) => {
                if !size.is_native() {
                    cfg.translation = TranslationConfig::with_native_size(size);
                }
                (
                    Box::new(static_paging(size, Placement::StaticAnalysis)),
                    cfg,
                )
            }
            ConfigKind::ClapSa => {
                cfg.translation = Clap::translation();
                (Box::new(Clap::sa()), cfg)
            }
            ConfigKind::ClapSaPlusPlus => {
                cfg.translation = Clap::translation();
                (Box::new(Clap::sa_plus_plus()), cfg)
            }
            ConfigKind::ClapMigration => {
                cfg.translation = Clap::translation();
                (Box::new(Clap::new().with_migration()), cfg)
            }
            ConfigKind::CNumaReal => (Box::new(CNuma::new().with_real_migration()), cfg),
            ConfigKind::GritReal => (Box::new(Grit::new().with_real_migration()), cfg),
            ConfigKind::ClapPmm(p) => {
                cfg.translation = Clap::translation();
                (
                    Box::new(Clap::new().with_pmm_threshold(p as f64 / 100.0)),
                    cfg,
                )
            }
            ConfigKind::ClapNoOlp => {
                cfg.translation = Clap::translation();
                (Box::new(Clap::new().without_olp()), cfg)
            }
            ConfigKind::ClapNoRt => {
                cfg.translation = Clap::translation();
                (Box::new(Clap::new().without_rt()), cfg)
            }
        }
    }
}

/// Convenience constructors mirroring the paper's config list.
pub mod presets {
    use super::*;

    /// `S-4KB` (Fig. 1 / Fig. 6 leftmost point).
    pub fn s4kb() -> Box<dyn PagingPolicy> {
        Box::new(s4k())
    }

    /// `S-64KB` (config 1).
    pub fn s64kb() -> Box<dyn PagingPolicy> {
        Box::new(s64k())
    }

    /// `S-2MB` (config 2).
    pub fn s2mb() -> Box<dyn PagingPolicy> {
        Box::new(s2m())
    }

    /// `SA-64KB` (§5.2).
    pub fn sa64kb() -> Box<dyn PagingPolicy> {
        Box::new(sa_64k())
    }

    /// `SA-2MB` (§5.2).
    pub fn sa2mb() -> Box<dyn PagingPolicy> {
        Box::new(sa_2m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(ConfigKind::Static(PageSize::Size64K).name(), "S-64KB");
        assert_eq!(ConfigKind::Static(PageSize::Size2M).name(), "S-2MB");
        assert_eq!(ConfigKind::Clap.name(), "CLAP");
        assert_eq!(ConfigKind::CNumaInter.name(), "Ideal_C-NUMA+inter");
        assert_eq!(
            ConfigKind::StaticAnalysis(PageSize::Size2M).name(),
            "SA-2MB"
        );
    }

    #[test]
    fn main_eval_has_nine_configs() {
        let c = ConfigKind::main_eval();
        assert_eq!(c.len(), 9);
        assert_eq!(c[7], ConfigKind::Clap);
        assert_eq!(c[8], ConfigKind::Ideal);
    }

    #[test]
    fn build_wires_machine_features() {
        let base = SimConfig::baseline();
        let (p, c) = ConfigKind::Clap.build(&base);
        assert_eq!(p.name(), "CLAP");
        assert!(c.translation.coalescing_64k);
        let (p, c) = ConfigKind::Mgvm.build(&base);
        assert_eq!(p.name(), "MGvm");
        assert_eq!(c.pte_placement, PtePlacement::RequesterLocal);
        let (p, c) = ConfigKind::FBarre.build(&base);
        assert_eq!(p.name(), "F-Barre");
        assert!(c.translation.barre_pattern);
        let (p, c) = ConfigKind::Ideal.build(&base);
        assert_eq!(p.name(), "Ideal");
        assert!(c.translation.ideal_2m_reach);
        let (_, c) = ConfigKind::Static(PageSize::Size256K).build(&base);
        assert!(c.translation.tlb_classes.contains(&PageSize::Size256K));
    }
}
