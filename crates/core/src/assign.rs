//! Initial assignment: die partition, displacement anchors, and cell→bin
//! seeding (paper §II-B and Algorithm 2 lines 1–2).

use crate::error::LegalizeError;
use crate::grid::BinGrid;
use crate::state::{FlowState, Seed};
use flow3d_db::{CellId, Design, DieId, Placement3d, RowLayout};
use flow3d_geom::Point;

/// Rounded global-placement positions — the displacement anchors
/// `(x'_c, y'_c)` of Eq. 4.
pub fn anchors(design: &Design, global: &Placement3d) -> Vec<Point> {
    (0..design.num_cells())
        .map(|i| global.pos(CellId::new(i)).round())
        .collect()
}

/// Snaps every cell to its nearest die, then rebalances: while a die
/// exceeds its utilization cap, the cells with the most ambiguous die
/// affinity are moved to the die with the largest headroom. This is the
/// shared starting point of *every* legalizer here (the paper's 2D
/// baselines fix this assignment; 3D-Flow refines it with D2D moves).
///
/// # Errors
///
/// [`LegalizeError::DieOverflow`] if no rebalance fits the cells,
/// [`LegalizeError::PlacementMismatch`] on cell-count mismatch.
pub fn partition_dies(design: &Design, global: &Placement3d) -> Result<Vec<DieId>, LegalizeError> {
    if global.num_cells() != design.num_cells() {
        return Err(LegalizeError::PlacementMismatch {
            design_cells: design.num_cells(),
            placement_cells: global.num_cells(),
        });
    }
    let num_dies = design.num_dies();
    let mut dies: Vec<DieId> = (0..design.num_cells())
        .map(|i| global.nearest_die(CellId::new(i), num_dies))
        .collect();

    let area = |cell: usize, die: DieId| {
        design.cell_width(CellId::new(cell), die) * design.cell_height(die)
    };
    let allowed: Vec<i64> = (0..num_dies)
        .map(|d| {
            let die = DieId::new(d);
            (design.die(die).max_util * design.free_area(die) as f64).floor() as i64
        })
        .collect();
    let mut used = vec![0i64; num_dies];
    for (i, &d) in dies.iter().enumerate() {
        used[d.index()] += area(i, d);
    }

    for d in 0..num_dies {
        if used[d] <= allowed[d] {
            continue;
        }
        // Most ambiguous cells first: smallest |affinity - die index|
        // distance to the midpoint between dies.
        let mut candidates: Vec<usize> = (0..design.num_cells())
            .filter(|&i| dies[i].index() == d)
            .collect();
        candidates.sort_by(|&a, &b| {
            let amb = |i: usize| (global.die_affinity(CellId::new(i)) - d as f64).abs();
            amb(b)
                .partial_cmp(&amb(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for i in candidates {
            if used[d] <= allowed[d] {
                break;
            }
            // Move to the die with the most headroom that can take it.
            let target = (0..num_dies)
                .filter(|&t| t != d)
                .max_by_key(|&t| allowed[t] - used[t] - area(i, DieId::new(t)));
            if let Some(t) = target {
                let a_t = area(i, DieId::new(t));
                if used[t] + a_t <= allowed[t] {
                    used[d] -= area(i, DieId::new(d));
                    used[t] += a_t;
                    dies[i] = DieId::new(t);
                }
            }
        }
        if used[d] > allowed[d] {
            return Err(LegalizeError::DieOverflow {
                die: DieId::new(d),
                required: used[d],
                allowed: allowed[d],
            });
        }
    }
    Ok(dies)
}

/// Seeds the flow state: every cell is inserted at the legal position
/// nearest its anchor on its assigned die (fractionally across straddled
/// bins). Cells that fit nowhere on their die fall back to other dies;
/// `dies` is updated to the final seeding.
///
/// # Errors
///
/// [`LegalizeError::NoPosition`] when a cell fits in no segment of any
/// die, [`LegalizeError::PlacementMismatch`] on cell-count mismatch.
pub fn build_state<'a>(
    design: &'a Design,
    layout: &'a RowLayout,
    grid: &'a BinGrid,
    global: &Placement3d,
    dies: &mut [DieId],
) -> Result<FlowState<'a>, LegalizeError> {
    if global.num_cells() != design.num_cells() {
        return Err(LegalizeError::PlacementMismatch {
            design_cells: design.num_cells(),
            placement_cells: global.num_cells(),
        });
    }
    let anchor = anchors(design, global);
    let seeds: Vec<Seed> = anchor
        .iter()
        .zip(dies.iter())
        .enumerate()
        .map(|(i, (&at, &die))| Seed {
            cell: CellId::new(i),
            die,
            at,
            any_die: true,
        })
        .collect();
    let mut state = FlowState::new(design, layout, grid, anchor);
    if let Some(&cell) = state.seed(&seeds).first() {
        return Err(LegalizeError::NoPosition { cell });
    }
    for (i, die) in dies.iter_mut().enumerate() {
        *die = state.cell_die(CellId::new(i));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};
    use flow3d_geom::FPoint;

    fn design(max_util: f64) -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W50", 50, 12)))
            .die(DieSpec::new(
                "bottom",
                "T",
                (0, 0, 200, 24),
                12,
                1,
                max_util,
            ))
            .die(DieSpec::new("top", "T", (0, 0, 200, 24), 12, 1, max_util));
        for i in 0..6 {
            b = b.cell(format!("u{i}"), "W50");
        }
        b.build().unwrap()
    }

    fn global(affinities: &[f64]) -> Placement3d {
        let mut g = Placement3d::new(affinities.len());
        for (i, &z) in affinities.iter().enumerate() {
            g.set_pos(CellId::new(i), FPoint::new(10.0 * i as f64, 0.0));
            g.set_die_affinity(CellId::new(i), z);
        }
        g
    }

    #[test]
    fn partition_follows_affinity_when_feasible() {
        let d = design(1.0);
        let g = global(&[0.1, 0.2, 0.9, 0.8, 0.4, 0.6]);
        let dies = partition_dies(&d, &g).unwrap();
        assert_eq!(
            dies,
            vec![
                DieId::BOTTOM,
                DieId::BOTTOM,
                DieId::TOP,
                DieId::TOP,
                DieId::BOTTOM,
                DieId::TOP
            ]
        );
    }

    #[test]
    fn partition_rebalances_ambiguous_cells_first() {
        // Capacity: free area 200*24 = 4800/die; util 0.5 -> 2400 allowed;
        // each cell is 600. All 6 on bottom (3600) exceeds; 2 must move,
        // and the two most ambiguous (0.45, 0.4) move first.
        let d = design(0.5);
        let g = global(&[0.0, 0.1, 0.45, 0.2, 0.4, 0.05]);
        let dies = partition_dies(&d, &g).unwrap();
        let moved: Vec<usize> = (0..6).filter(|&i| dies[i] == DieId::TOP).collect();
        assert_eq!(moved, vec![2, 4]);
    }

    #[test]
    fn partition_errors_when_nothing_fits() {
        // util 0.2 -> 960/die; 6 cells of 600 = 3600 > 1920 total.
        let d = design(0.2);
        let g = global(&[0.0; 6]);
        assert!(matches!(
            partition_dies(&d, &g),
            Err(LegalizeError::DieOverflow { .. })
        ));
    }

    #[test]
    fn build_state_seeds_every_cell_near_anchor() {
        let d = design(1.0);
        let g = global(&[0.0, 0.0, 1.0, 1.0, 0.0, 1.0]);
        let layout = RowLayout::build(&d);
        let grid = BinGrid::build(&d, &layout, &[60, 60], true);
        let mut dies = partition_dies(&d, &g).unwrap();
        let st = build_state(&d, &layout, &grid, &g, &mut dies).unwrap();
        st.check_invariants().unwrap();
        for (i, &die) in dies.iter().enumerate() {
            let cell = CellId::new(i);
            assert_eq!(st.cell_die(cell), die);
            let total: i64 = st.cell_frags(cell).iter().map(|&(_, w)| w).sum();
            assert_eq!(total, 50);
        }
    }

    #[test]
    fn build_state_rejects_mismatched_placement() {
        let d = design(1.0);
        let g = Placement3d::new(2);
        let layout = RowLayout::build(&d);
        let grid = BinGrid::build(&d, &layout, &[60, 60], true);
        let mut dies = vec![DieId::BOTTOM; 6];
        assert!(matches!(
            build_state(&d, &layout, &grid, &g, &mut dies),
            Err(LegalizeError::PlacementMismatch { .. })
        ));
    }

    #[test]
    fn anchors_round_continuous_positions() {
        let d = design(1.0);
        let mut g = Placement3d::new(6);
        g.set_pos(CellId::new(0), FPoint::new(1.6, 2.4));
        let a = anchors(&d, &g);
        assert_eq!(a[0], Point::new(2, 2));
    }
}
