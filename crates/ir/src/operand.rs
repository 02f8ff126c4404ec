//! Instruction operands: registers, views and constants.
//!
//! In the paper's notation `BH_ADD a0 [0:10:1] a0 [0:10:1] 1`, the operands
//! are two *views* (`a0 [0:10:1]`) and one *constant* (`1`). A view names a
//! base register plus optional per-axis slices; when the slices are omitted
//! (as in Listings 3–5) the full base is meant.

use bh_tensor::{Scalar, Slice};
use std::fmt;

/// A base-array register (`a0`, `a1`, …). Indexes a [`crate::BaseDecl`] in
/// the owning [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// Zero-based register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A view operand: a register plus optional slicing.
///
/// `slices: None` means the full base view, matching the listings that
/// elide `[0:10:1]` "since the view is the same for all registers".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewRef {
    /// Base register.
    pub reg: Reg,
    /// Per-axis slices; `None` = full view of the base.
    pub slices: Option<Vec<Slice>>,
}

impl ViewRef {
    /// The full view of `reg`.
    pub fn full(reg: Reg) -> ViewRef {
        ViewRef { reg, slices: None }
    }

    /// A sliced view of `reg`.
    pub fn sliced(reg: Reg, slices: Vec<Slice>) -> ViewRef {
        ViewRef {
            reg,
            slices: Some(slices),
        }
    }

    /// True when this view covers the entire base (explicitly or by
    /// omission). A conservatively syntactic check: explicit slices count
    /// as full only if every axis is `::1`.
    pub fn is_syntactically_full(&self) -> bool {
        match &self.slices {
            None => true,
            Some(slices) => slices.iter().all(|s| *s == Slice::full()),
        }
    }
}

impl fmt::Display for ViewRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reg)?;
        if let Some(slices) = &self.slices {
            write!(f, "[")?;
            for (i, s) in slices.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// One instruction operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A (possibly sliced) view of a base register.
    View(ViewRef),
    /// An immediate scalar constant.
    Const(Scalar),
}

impl Operand {
    /// Full view of a register.
    pub fn full(reg: Reg) -> Operand {
        Operand::View(ViewRef::full(reg))
    }

    /// Sliced view of a register.
    pub fn sliced(reg: Reg, slices: Vec<Slice>) -> Operand {
        Operand::View(ViewRef::sliced(reg, slices))
    }

    /// The view, if this operand is one.
    pub fn as_view(&self) -> Option<&ViewRef> {
        match self {
            Operand::View(v) => Some(v),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this operand is one.
    pub fn as_const(&self) -> Option<Scalar> {
        match self {
            Operand::Const(s) => Some(*s),
            Operand::View(_) => None,
        }
    }

    /// The register this operand reads, if any.
    pub fn reg(&self) -> Option<Reg> {
        self.as_view().map(|v| v.reg)
    }

    /// True for [`Operand::Const`].
    pub fn is_const(&self) -> bool {
        matches!(self, Operand::Const(_))
    }
}

impl From<Scalar> for Operand {
    fn from(s: Scalar) -> Operand {
        Operand::Const(s)
    }
}

impl From<ViewRef> for Operand {
    fn from(v: ViewRef) -> Operand {
        Operand::View(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::View(v) => write!(f, "{v}"),
            Operand::Const(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_display() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(Reg(3).index(), 3);
    }

    #[test]
    fn full_view_display_elides_slices() {
        let v = ViewRef::full(Reg(0));
        assert_eq!(v.to_string(), "r0");
        assert!(v.is_syntactically_full());
    }

    #[test]
    fn sliced_view_display() {
        let v = ViewRef::sliced(Reg(1), vec![Slice::new(Some(0), Some(10), 1)]);
        assert_eq!(v.to_string(), "r1[0:10:1]");
        assert!(!v.is_syntactically_full());
        let full = ViewRef::sliced(Reg(1), vec![Slice::full()]);
        assert!(full.is_syntactically_full());
    }

    #[test]
    fn multi_axis_display() {
        let v = ViewRef::sliced(Reg(2), vec![Slice::range(1, 3), Slice::new(None, None, 2)]);
        assert_eq!(v.to_string(), "r2[1:3:1,::2]");
    }

    #[test]
    fn operand_accessors() {
        let c = Operand::from(Scalar::I64(5));
        assert!(c.is_const());
        assert_eq!(c.as_const(), Some(Scalar::I64(5)));
        assert_eq!(c.reg(), None);
        let v = Operand::full(Reg(0));
        assert_eq!(v.reg(), Some(Reg(0)));
        assert!(v.as_const().is_none());
    }

    #[test]
    fn operand_display() {
        assert_eq!(Operand::from(Scalar::F64(3.0)).to_string(), "3.0");
        assert_eq!(Operand::full(Reg(7)).to_string(), "r7");
    }
}
