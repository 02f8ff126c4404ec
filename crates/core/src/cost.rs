//! Static cost model for byte-code programs.
//!
//! Scores a program before executing it, in the cost regime the paper
//! targets: every byte-code is (at least) one kernel launch over the whole
//! operand view, so removing byte-codes removes fixed launch overhead and
//! full-array memory traffic, and replacing `BH_POWER` with multiplies
//! trades expensive flops for cheap ones. The pass manager reports these
//! estimates before/after transformation; the VM's [`bh_vm::ExecStats`]
//! measures the same quantities dynamically.
//!
//! [`bh_vm::ExecStats`]: https://docs.rs/bh-vm

use bh_ir::{OpKind, Opcode, Operand, Program};
use std::fmt;

/// Tunable weights of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostParams {
    /// Fixed cost per kernel launch, in abstract time units. The default
    /// (4096) reflects a GPU-offload regime where launching dominates
    /// small arrays.
    pub launch_overhead: u64,
    /// Time units per abstract flop.
    pub flop_cost: u64,
    /// Time units per byte moved.
    pub byte_cost: u64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            launch_overhead: 4096,
            flop_cost: 4,
            byte_cost: 1,
        }
    }
}

/// Static cost estimate of one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostEstimate {
    /// Byte-codes (excluding `BH_NONE`).
    pub bytecodes: u64,
    /// Kernel launches (byte-codes that execute work).
    pub kernels: u64,
    /// Abstract flops (per-element unit costs + linalg models).
    pub flops: u64,
    /// Bytes read + written by operand views.
    pub traffic_bytes: u64,
    /// Combined model time under the parameters used.
    pub time: u64,
}

impl CostEstimate {
    /// `self.time` as a ratio of `other.time` (speed-up when < 1).
    pub fn relative_to(&self, other: &CostEstimate) -> f64 {
        if other.time == 0 {
            return 1.0;
        }
        self.time as f64 / other.time as f64
    }
}

impl fmt::Display for CostEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} byte-codes, {} kernels, {} flops, {} B traffic, model time {}",
            self.bytecodes, self.kernels, self.flops, self.traffic_bytes, self.time
        )
    }
}

/// Estimate a program's execution cost statically.
pub fn estimate(program: &Program, params: &CostParams) -> CostEstimate {
    let mut est = CostEstimate::default();
    for instr in program.instrs() {
        if instr.is_noop() {
            continue;
        }
        est.bytecodes += 1;
        let out_nelem = instr
            .out_view()
            .and_then(|v| program.view_nelem(v))
            .map(|n| n as u64);
        match instr.op.kind() {
            OpKind::System => {
                // Syncs/frees are runtime bookkeeping, not kernels.
            }
            OpKind::LinAlg => {
                est.kernels += 1;
                est.flops += linalg_flops(program, instr);
                est.traffic_bytes += view_traffic(program, instr);
            }
            _ => {
                est.kernels += 1;
                let work_nelem = match instr.op.kind() {
                    // Reductions/scans do work proportional to the input.
                    OpKind::Reduction | OpKind::Scan => instr.operands[1]
                        .as_view()
                        .and_then(|v| program.view_nelem(v))
                        .unwrap_or(0)
                        as u64,
                    _ => out_nelem.unwrap_or(0),
                };
                est.flops += instr.op.unit_cost() * work_nelem;
                est.traffic_bytes += view_traffic(program, instr);
            }
        }
    }
    est.time = est.kernels * params.launch_overhead
        + est.flops * params.flop_cost
        + est.traffic_bytes * params.byte_cost;
    est
}

fn view_traffic(program: &Program, instr: &bh_ir::Instruction) -> u64 {
    let mut bytes = 0u64;
    for o in &instr.operands {
        if let Operand::View(v) = o {
            if let Some(n) = program.view_nelem(v) {
                bytes += n as u64 * program.base(v.reg).dtype.size_of() as u64;
            }
        }
    }
    bytes
}

fn linalg_flops(program: &Program, instr: &bh_ir::Instruction) -> u64 {
    let dims = |k: usize| -> (u64, u64) {
        instr.operands[k]
            .as_view()
            .and_then(|v| program.resolve_view(v).ok())
            .map(|g| {
                let s = g.shape();
                match s.rank() {
                    1 => (s.dim(0) as u64, 1),
                    2 => (s.dim(0) as u64, s.dim(1) as u64),
                    _ => (g.nelem() as u64, 1),
                }
            })
            .unwrap_or((0, 0))
    };
    match instr.op {
        Opcode::MatMul => {
            let (m, k) = dims(1);
            let (_, n) = dims(2);
            2 * m * k * n
        }
        Opcode::Inverse => {
            let (n, _) = dims(1);
            2 * n * n * n
        }
        Opcode::Solve => {
            let (n, _) = dims(1);
            let (_, k) = dims(2);
            2 * n * n * n / 3 + 2 * n * n * k
        }
        Opcode::Transpose => {
            let (m, n) = dims(1);
            m * n
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;

    fn cost_of(text: &str) -> CostEstimate {
        estimate(&parse_program(text).unwrap(), &CostParams::default())
    }

    #[test]
    fn listing3_cheaper_than_listing2() {
        let unopt = cost_of(
            "BH_IDENTITY a0 [0:10:1] 0\n\
             BH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
             BH_SYNC a0\n",
        );
        let opt = cost_of(
            "BH_IDENTITY a0 [0:10:1] 0\n\
             BH_ADD a0 a0 3\n\
             BH_SYNC a0\n",
        );
        assert!(opt.time < unopt.time);
        assert_eq!(unopt.kernels - opt.kernels, 2);
        assert_eq!(unopt.bytecodes, 5);
        assert_eq!(opt.bytecodes, 3);
    }

    #[test]
    fn power_flops_dwarf_multiply_chain() {
        let power = cost_of(
            "BH_IDENTITY a0 [0:1000:1] 2\n\
             BH_POWER a1 [0:1000:1] a0 10\n\
             BH_SYNC a1\n",
        );
        let chain = cost_of(
            "BH_IDENTITY a0 [0:1000:1] 2\n\
             BH_MULTIPLY a1 [0:1000:1] a0 a0\n\
             BH_MULTIPLY a1 a1 a1\n\
             BH_MULTIPLY a1 a1 a0\n\
             BH_MULTIPLY a1 a1 a1\n\
             BH_SYNC a1\n",
        );
        assert!(chain.flops < power.flops);
        assert!(
            chain.time < power.time,
            "chain {} vs power {}",
            chain.time,
            power.time
        );
    }

    #[test]
    fn solve_cheaper_than_inverse_matmul() {
        let inverse = cost_of(
            ".base a f64[64,64] input\n.base b f64[64] input\n\
             .base t f64[64,64]\n.base x f64[64]\n\
             BH_INVERSE t a\n\
             BH_MATMUL x t b\n\
             BH_SYNC x\n",
        );
        let solve = cost_of(
            ".base a f64[64,64] input\n.base b f64[64] input\n\
             .base x f64[64]\n\
             BH_SOLVE x a b\n\
             BH_SYNC x\n",
        );
        assert!(solve.flops < inverse.flops);
        assert!(solve.time < inverse.time);
    }

    #[test]
    fn noop_costs_nothing() {
        let with = cost_of("BH_IDENTITY a0 [0:4:1] 1\nBH_NONE\nBH_SYNC a0\n");
        let without = cost_of("BH_IDENTITY a0 [0:4:1] 1\nBH_SYNC a0\n");
        assert_eq!(with, without);
    }

    #[test]
    fn reduction_costs_input_sized_work() {
        let c = cost_of(
            ".base m f64[100,100] input\n.base s f64[100]\n\
             BH_ADD_REDUCE s m 0\nBH_SYNC s\n",
        );
        assert!(c.flops >= 10_000);
    }

    #[test]
    fn relative_to() {
        let a = CostEstimate {
            time: 50,
            ..Default::default()
        };
        let b = CostEstimate {
            time: 100,
            ..Default::default()
        };
        assert_eq!(a.relative_to(&b), 0.5);
        assert_eq!(a.relative_to(&CostEstimate::default()), 1.0);
    }
}
