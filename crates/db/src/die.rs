//! Dies and placement rows.

use crate::ids::{RowId, TechId};
use flow3d_geom::{Interval, Rect};

/// Most placement rows one die may have. A [`Die`] stores every row, so
/// without a cap a few bytes of die outline could demand terabytes;
/// building a design rejects a die above it as
/// [`DbError::InvalidDie`](crate::DbError::InvalidDie). Contest-scale
/// dies have hundreds of rows.
pub const MAX_ROWS_PER_DIE: usize = 1 << 20;

/// Largest coordinate magnitude, in DBU, that a reader accepts from a
/// placement file, a move list or a wire request. Every integer up to it
/// is an exact `f64`, so `round() as i64` of an accepted value is exact,
/// and sums and differences of a few coordinates stay far from `i64`
/// overflow. Contest dies span under 10^7 DBU.
pub const MAX_COORD: i64 = 1 << 53;

/// One horizontal placement row of a die.
///
/// Standard cells placed in the row have their lower-left y equal to the
/// row's `y` and their height equal to the die's row height.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Row index within the die, counted from the bottom.
    pub id: RowId,
    /// y-coordinate of the row's bottom edge.
    pub y: i64,
    /// Horizontal extent of the row.
    pub span: Interval,
}

impl Row {
    /// Vertical extent `[y, y + row_height)` of the row.
    #[inline]
    pub fn y_span(&self, row_height: i64) -> Interval {
        Interval::with_len(self.y, row_height)
    }
}

/// One die of the 3D stack.
#[derive(Debug, Clone, PartialEq)]
// flow3d-tidy: allow(dead-pub) — design-database model type, part of the flow3d::db facade surface
pub struct Die {
    /// Die name (e.g. `"top"`, `"bottom"`).
    pub name: String,
    /// Technology the die is fabricated in.
    pub tech: TechId,
    /// Placeable outline.
    pub outline: Rect,
    /// Height of every placement row, the paper's `h_r^+` / `h_r^-`.
    pub row_height: i64,
    /// Width of a placement site; legal x-positions are multiples of this
    /// from the outline's left edge.
    pub site_width: i64,
    /// Maximum fraction of placeable area that standard cells may occupy
    /// (the contest's `MaxUtil`, as a fraction in `(0, 1]`).
    pub max_util: f64,
    /// Placement rows, bottom to top.
    pub rows: Vec<Row>,
}

impl Die {
    /// Builds a die whose rows tile the outline from the bottom edge.
    ///
    /// Rows are generated at `outline.ylo + k * row_height` for as many
    /// full rows as fit in the outline.
    ///
    /// # Panics
    ///
    /// Panics if `row_height <= 0` or `site_width <= 0`.
    pub fn with_uniform_rows(
        name: impl Into<String>,
        tech: TechId,
        outline: Rect,
        row_height: i64,
        site_width: i64,
        max_util: f64,
    ) -> Self {
        assert!(row_height > 0, "non-positive row height");
        assert!(site_width > 0, "non-positive site width");
        let num_rows = (outline.height() / row_height).max(0) as usize;
        let rows = (0..num_rows)
            .map(|k| Row {
                id: RowId::new(k),
                y: outline.ylo + k as i64 * row_height,
                span: outline.x_span(),
            })
            .collect();
        Self {
            name: name.into(),
            tech,
            outline,
            row_height,
            site_width,
            max_util,
            rows,
        }
    }

    /// Number of placement rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The row whose vertical span contains `y`, if any.
    pub fn row_containing(&self, y: i64) -> Option<&Row> {
        if self.rows.is_empty() || y < self.outline.ylo {
            return None;
        }
        let idx = (y - self.outline.ylo) / self.row_height;
        let row = self.rows.get(idx as usize)?;
        row.y_span(self.row_height).contains_point(y).then_some(row)
    }

    /// The row whose bottom edge is nearest to `y` (ties go to the lower
    /// row). Returns `None` only for a die without rows.
    pub fn nearest_row(&self, y: i64) -> Option<&Row> {
        if self.rows.is_empty() {
            return None;
        }
        let rel = y - self.outline.ylo;
        let idx = rel.div_euclid(self.row_height);
        let rem = rel.rem_euclid(self.row_height);
        // Row bottoms sit at multiples of row_height; choose between row
        // `idx` (bottom below y) and row `idx + 1`.
        let idx = if rem * 2 <= self.row_height {
            idx
        } else {
            idx + 1
        };
        let idx = idx.clamp(0, self.rows.len() as i64 - 1) as usize;
        self.rows.get(idx)
    }

    /// Total placeable row area of the die in DBU² (before subtracting
    /// macro blockages).
    pub fn rows_area(&self) -> i64 {
        self.rows
            .iter()
            .map(|r| r.span.len() * self.row_height)
            .sum()
    }

    /// Snaps `x` to the nearest legal site position, ignoring bounds.
    #[inline]
    pub fn snap_to_site(&self, x: i64) -> i64 {
        flow3d_geom::snap_nearest(x, self.outline.xlo, self.site_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> Die {
        Die::with_uniform_rows("d", TechId::new(0), Rect::new(0, 0, 100, 50), 10, 2, 1.0)
    }

    #[test]
    fn uniform_rows_tile_the_outline() {
        let d = die();
        assert_eq!(d.num_rows(), 5);
        assert_eq!(d.rows[0].y, 0);
        assert_eq!(d.rows[4].y, 40);
        assert_eq!(d.rows_area(), 100 * 50);
    }

    #[test]
    fn partial_top_row_is_dropped() {
        let d = Die::with_uniform_rows("d", TechId::new(0), Rect::new(0, 0, 100, 55), 10, 2, 1.0);
        assert_eq!(d.num_rows(), 5);
        assert_eq!(d.rows_area(), 100 * 50);
    }

    #[test]
    fn row_containing_edges() {
        let d = die();
        assert_eq!(d.row_containing(0).unwrap().id.index(), 0);
        assert_eq!(d.row_containing(9).unwrap().id.index(), 0);
        assert_eq!(d.row_containing(10).unwrap().id.index(), 1);
        assert!(d.row_containing(-1).is_none());
        assert!(d.row_containing(50).is_none());
    }

    #[test]
    fn nearest_row_rounds_and_clamps() {
        let d = die();
        assert_eq!(d.nearest_row(4).unwrap().id.index(), 0);
        assert_eq!(d.nearest_row(5).unwrap().id.index(), 0); // tie -> lower
        assert_eq!(d.nearest_row(6).unwrap().id.index(), 1);
        assert_eq!(d.nearest_row(-100).unwrap().id.index(), 0);
        assert_eq!(d.nearest_row(1000).unwrap().id.index(), 4);
    }

    #[test]
    fn nearest_row_with_offset_outline() {
        let d =
            Die::with_uniform_rows("d", TechId::new(0), Rect::new(0, 100, 100, 150), 10, 2, 1.0);
        assert_eq!(d.nearest_row(104).unwrap().y, 100);
        assert_eq!(d.nearest_row(117).unwrap().y, 120);
    }

    #[test]
    fn snap_to_site_uses_outline_origin() {
        let d = Die::with_uniform_rows("d", TechId::new(0), Rect::new(5, 0, 105, 50), 10, 4, 1.0);
        assert_eq!(d.snap_to_site(5), 5);
        assert_eq!(d.snap_to_site(8), 9);
        assert_eq!(d.snap_to_site(6), 5);
    }
}
