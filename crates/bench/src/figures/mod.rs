//! The paper's evaluation, one module per figure. Figures stay code, not
//! data: each prints the table or ratio comparison the paper makes.

use efactory_harness::Report;
use efactory_ycsb::Mix;

use crate::Scale;

pub mod ablations;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig9;

/// A figure to regenerate.
#[derive(Debug, Clone, PartialEq)]
pub enum Figure {
    Fig1,
    Fig2,
    /// Figure 9 restricted to these panels, in order.
    Fig9(Vec<Mix>),
    Fig10,
    Fig11,
    Ablations,
}

impl Figure {
    /// The figure called `name`, Figure 9 with all four panels.
    pub fn named(name: &str) -> Option<Figure> {
        Some(match name {
            "fig1" => Figure::Fig1,
            "fig2" => Figure::Fig2,
            "fig9" => Figure::Fig9(fig9::PANELS.map(|(_, mix)| mix).to_vec()),
            "fig10" => Figure::Fig10,
            "fig11" => Figure::Fig11,
            "ablations" => Figure::Ablations,
            _ => return None,
        })
    }

    /// Run the figure at `scale`, print its tables, and return its report.
    pub fn run(&self, scale: Scale) -> Report {
        match self {
            Figure::Fig1 => fig1::run(scale),
            Figure::Fig2 => fig2::run(scale),
            Figure::Fig9(panels) => fig9::run(scale, panels),
            Figure::Fig10 => fig10::run(scale),
            Figure::Fig11 => fig11::run(scale),
            Figure::Ablations => ablations::run(scale),
        }
    }
}
