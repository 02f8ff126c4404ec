//! # bh-vm — the byte-code virtual machine
//!
//! Executes descriptive vector byte-code (`bh-ir`) over the tensor
//! substrate (`bh-tensor`), standing in for the Bohrium runtime and its
//! OpenCL/CPU backends (see DESIGN.md §2 for the substitution argument).
//!
//! Alongside producing results, the VM meters the quantities the paper's
//! transformations optimise — kernel launches, memory traffic and flops —
//! so every experiment can report model counters next to wall-clock time.
//!
//! # Example
//!
//! Execute Listing 2 unoptimised vs. Listing 3 optimised and compare both
//! results and costs:
//!
//! ```
//! use bh_ir::parse_program;
//! use bh_vm::Vm;
//!
//! let unopt = parse_program(
//!     "BH_IDENTITY a0 [0:10:1] 0\n\
//!      BH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
//!      BH_SYNC a0\n")?;
//! let opt = parse_program(
//!     "BH_IDENTITY a0 [0:10:1] 0\n\
//!      BH_ADD a0 a0 3\n\
//!      BH_SYNC a0\n")?;
//!
//! let mut vm1 = Vm::new();
//! vm1.run(&unopt)?;
//! let mut vm2 = Vm::new();
//! vm2.run(&opt)?;
//!
//! assert_eq!(vm1.read_by_name(&unopt, "a0")?, vm2.read_by_name(&opt, "a0")?);
//! assert!(vm2.stats().kernels < vm1.stats().kernels);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

mod error;
mod exec;
mod fusion;
mod machine;
mod pool;
mod stash;
mod stats;

pub use error::VmError;
pub use machine::{Engine, Vm};
pub use pool::{PooledVm, VmPool, WorkerPool};
pub use stats::ExecStats;

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, parse_program_with, ParseOptions};
    use bh_tensor::{DType, Shape, Tensor};

    fn run_text(text: &str) -> (bh_ir::Program, Vm) {
        let p = parse_program(text).unwrap();
        let mut vm = Vm::new();
        vm.run(&p).unwrap();
        (p, vm)
    }

    #[test]
    fn listing2_produces_threes() {
        let (p, vm) = run_text(
            "BH_IDENTITY a0 [0:10:1] 0\n\
             BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
             BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
             BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
             BH_SYNC a0 [0:10:1]\n",
        );
        assert_eq!(
            vm.read_by_name(&p, "a0").unwrap().to_f64_vec(),
            vec![3.0; 10]
        );
        assert_eq!(vm.stats().instructions, 5);
        assert_eq!(vm.stats().kernels, 4);
        assert_eq!(vm.stats().syncs, 1);
    }

    #[test]
    fn listing5_power_chain_computes_x_to_10() {
        let (p, vm) = run_text(
            "BH_IDENTITY a0 [0:4:1] 2\n\
             BH_MULTIPLY a1 [0:4:1] a0 [0:4:1] a0 [0:4:1]\n\
             BH_MULTIPLY a1 a1 a1\n\
             BH_MULTIPLY a1 a1 a1\n\
             BH_MULTIPLY a1 a1 a0\n\
             BH_MULTIPLY a1 a1 a0\n\
             BH_SYNC a1\n",
        );
        assert_eq!(
            vm.read_by_name(&p, "a1").unwrap().to_f64_vec(),
            vec![1024.0; 4]
        );
    }

    #[test]
    fn power_opcode_matches_chain() {
        let (p, vm) = run_text(
            "BH_IDENTITY x [0:4:1] 3\n\
             BH_POWER y [0:4:1] x [0:4:1] 5\n\
             BH_SYNC y\n",
        );
        assert_eq!(
            vm.read_by_name(&p, "y").unwrap().to_f64_vec(),
            vec![243.0; 4]
        );
    }

    #[test]
    fn sliced_updates_touch_only_the_view() {
        let (p, vm) = run_text(
            "BH_IDENTITY a0 [0:10:1] 1\n\
             BH_ADD a0 [0:10:2] a0 [0:10:2] 10\n\
             BH_SYNC a0\n",
        );
        assert_eq!(
            vm.read_by_name(&p, "a0").unwrap().to_f64_vec(),
            vec![11.0, 1.0, 11.0, 1.0, 11.0, 1.0, 11.0, 1.0, 11.0, 1.0]
        );
    }

    #[test]
    fn reversed_view_copy() {
        let (p, vm) = run_text(
            ".base a f64[4] input\n\
             .base b f64[4]\n\
             BH_IDENTITY b a [::-1]\n\
             BH_SYNC b\n",
        );
        // bind happened implicitly as zeros; rebind with data and re-run:
        let mut vm2 = Vm::new();
        vm2.bind_by_name(&p, "a", &Tensor::from_vec(vec![1.0f64, 2.0, 3.0, 4.0]))
            .unwrap();
        vm2.run(&p).unwrap();
        assert_eq!(
            vm2.read_by_name(&p, "b").unwrap().to_f64_vec(),
            vec![4.0, 3.0, 2.0, 1.0]
        );
        let _ = vm;
    }

    #[test]
    fn comparison_writes_bools() {
        let (p, vm) = run_text(
            ".base x f64[4]\n.base m bool[4]\n\
             BH_RANGE x\n\
             BH_GREATER m x 1.5\n\
             BH_SYNC m\n",
        );
        let m = vm.read_by_name(&p, "m").unwrap();
        assert_eq!(m.dtype(), DType::Bool);
        assert_eq!(m.to_f64_vec(), vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn identity_casts_between_dtypes() {
        let (p, vm) = run_text(
            ".base x i32[3]\n.base y f64[3]\n\
             BH_IDENTITY x 7\n\
             BH_IDENTITY y x\n\
             BH_SYNC y\n",
        );
        let y = vm.read_by_name(&p, "y").unwrap();
        assert_eq!(y.dtype(), DType::Float64);
        assert_eq!(y.to_f64_vec(), vec![7.0; 3]);
    }

    #[test]
    fn reduction_and_scan() {
        let (p, vm) = run_text(
            ".base m f64[2,3]\n.base s f64[2]\n.base c f64[2,3]\n\
             BH_RANGE m\n\
             BH_ADD_REDUCE s m 1\n\
             BH_ADD_ACCUMULATE c m 1\n\
             BH_SYNC s\nBH_SYNC c\n",
        );
        // m = [[0,1,2],[3,4,5]]
        assert_eq!(
            vm.read_by_name(&p, "s").unwrap().to_f64_vec(),
            vec![3.0, 12.0]
        );
        assert_eq!(
            vm.read_by_name(&p, "c").unwrap().to_f64_vec(),
            vec![0.0, 1.0, 3.0, 3.0, 7.0, 12.0]
        );
    }

    #[test]
    fn max_reduce_handles_negatives() {
        let p = parse_program(
            ".base x f64[4] input\n.base m f64[]\n\
             BH_MAXIMUM_REDUCE m x 0\n\
             BH_SYNC m\n",
        )
        .unwrap();
        let mut vm = Vm::new();
        vm.bind_by_name(&p, "x", &Tensor::from_vec(vec![-5.0f64, -2.0, -9.0, -3.0]))
            .unwrap();
        vm.run(&p).unwrap();
        assert_eq!(vm.read_by_name(&p, "m").unwrap().to_f64_vec(), vec![-2.0]);
    }

    #[test]
    fn matmul_solve_inverse_opcodes() {
        let p = parse_program(
            ".base a f64[2,2] input\n.base b f64[2] input\n\
             .base inv f64[2,2]\n.base x1 f64[2]\n.base x2 f64[2]\n\
             BH_INVERSE inv a\n\
             BH_MATMUL x1 inv b\n\
             BH_SOLVE x2 a b\n\
             BH_SYNC x1\nBH_SYNC x2\n",
        )
        .unwrap();
        let mut vm = Vm::new();
        let a = Tensor::from_shape_vec(Shape::matrix(2, 2), vec![2.0f64, 1.0, 1.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3.0f64, 5.0]);
        vm.bind_by_name(&p, "a", &a).unwrap();
        vm.bind_by_name(&p, "b", &b).unwrap();
        vm.run(&p).unwrap();
        let x1 = vm.read_by_name(&p, "x1").unwrap();
        let x2 = vm.read_by_name(&p, "x2").unwrap();
        // Eq. 2: both strategies produce the same x.
        assert!(x1.allclose(&x2, 1e-12));
        assert!(x1.allclose(&Tensor::from_vec(vec![0.8f64, 1.4]), 1e-12));
    }

    #[test]
    fn matmul_flops_follow_the_operand_orientation() {
        // A rank-1 left operand is a 1 × k row, a rank-1 right operand a
        // k × 1 column, so a vector operand never multiplies the count by
        // its own length.
        // (lhs, rhs, out, flops) for m = 6, k = 5, n = 3.
        for (a, b, out, flops) in [
            ("6,5", "5", "6", 2 * 6 * 5),
            ("5", "5", "1", 2 * 5),
            ("5", "5,3", "3", 2 * 5 * 3),
            ("6,5", "5,3", "6,3", 2 * 6 * 5 * 3),
        ] {
            let (_, vm) = run_text(&format!(
                ".base a f64[{a}] input\n.base b f64[{b}] input\n.base x f64[{out}]\n\
                 BH_MATMUL x a b\nBH_SYNC x\n"
            ));
            assert_eq!(vm.stats().flops, flops, "f64[{a}] @ f64[{b}]");
        }
    }

    #[test]
    fn matmul_program_keeps_zero_times_inf_and_nan() {
        let p = parse_program(
            ".base a f64[2] input\n.base b f64[2] input\n.base x f64[1]\n\
             BH_MATMUL x a b\nBH_SYNC x\n",
        )
        .unwrap();
        for bad in [f64::INFINITY, f64::NAN] {
            let mut vm = Vm::new();
            vm.bind_by_name(&p, "a", &Tensor::from_vec(vec![0.0f64, 1.0]))
                .unwrap();
            vm.bind_by_name(&p, "b", &Tensor::from_vec(vec![bad, 1.0]))
                .unwrap();
            vm.run(&p).unwrap();
            let x = vm.read_by_name(&p, "x").unwrap().to_f64_vec();
            assert!(x[0].is_nan(), "[0, 1]·[{bad}, 1] = {x:?}");
        }
    }

    #[test]
    fn free_releases_memory() {
        let (p, vm) = run_text(
            "BH_IDENTITY a0 [0:4:1] 1\n\
             BH_FREE a0\n",
        );
        assert!(vm.read_by_name(&p, "a0").is_err());
    }

    #[test]
    fn fused_engine_matches_naive() {
        let text = "\
BH_IDENTITY a0 [0:1000:1] 1\n\
BH_ADD a0 a0 2\n\
BH_MULTIPLY a0 a0 a0\n\
BH_SUBTRACT a0 a0 5\n\
BH_SYNC a0\n";
        let p = parse_program(text).unwrap();
        let mut naive = Vm::new();
        naive.run(&p).unwrap();
        let mut fused = Vm::with_engine(Engine::Fusing { block: 64 });
        fused.run(&p).unwrap();
        assert_eq!(
            naive.read_by_name(&p, "a0").unwrap(),
            fused.read_by_name(&p, "a0").unwrap()
        );
        // 4 kernel launches collapse into 1 fused group + sync accounting.
        assert_eq!(naive.stats().kernels, 4);
        assert_eq!(fused.stats().fused_groups, 1);
        assert!(fused.stats().kernels < naive.stats().kernels);
    }

    #[test]
    fn fused_engine_handles_power_chain() {
        let text = "\
BH_IDENTITY a0 [0:257:1] 2\n\
BH_MULTIPLY a1 [0:257:1] a0 a0\n\
BH_MULTIPLY a1 a1 a1\n\
BH_MULTIPLY a1 a1 a1\n\
BH_MULTIPLY a1 a1 a0\n\
BH_MULTIPLY a1 a1 a0\n\
BH_SYNC a1\n";
        let p = parse_program(text).unwrap();
        let mut fused = Vm::with_engine(Engine::Fusing { block: 100 });
        fused.run(&p).unwrap();
        assert_eq!(
            fused.read_by_name(&p, "a1").unwrap().to_f64_vec(),
            vec![1024.0; 257]
        );
    }

    #[test]
    fn parallel_threads_match_sequential() {
        let n = 1 << 17;
        let text = format!(
            "BH_IDENTITY a0 [0:{n}:1] 1.5\n\
             BH_MULTIPLY a0 a0 2\n\
             BH_ADD a0 a0 1\n\
             BH_SYNC a0\n"
        );
        let p = parse_program(&text).unwrap();
        let mut seq = Vm::new();
        seq.run(&p).unwrap();
        let mut par = Vm::new();
        par.set_threads(4);
        par.run(&p).unwrap();
        assert_eq!(
            seq.read_by_name(&p, "a0").unwrap(),
            par.read_by_name(&p, "a0").unwrap()
        );
    }

    #[test]
    fn parallel_fused_groups_match_serial_and_naive() {
        // Mixed chain over full views: arithmetic, compare into a bool
        // base, cast back — everything the step compiler handles — small
        // arrays (miri-sized) with a forced-low threshold so sharding
        // really engages. `y` and `m` are temporaries written by one
        // member and read by the next.
        let text = "\
.base x f64[100]\n.base y f64[100]\n.base m bool[100]\n.base z f64[100]\n\
BH_IDENTITY x 1.5\n\
BH_MULTIPLY y x 3\n\
BH_ADD y y x\n\
BH_GREATER m y 5\n\
BH_IDENTITY z m\n\
BH_ADD z z y\n\
BH_SYNC z\nBH_SYNC m\n";
        let p = parse_program(text).unwrap();
        let mut naive = Vm::new();
        naive.run(&p).unwrap();
        let mut serial = Vm::with_engine(Engine::Fusing { block: 16 });
        serial.run(&p).unwrap();
        for threads in [2, 4] {
            let mut par = Vm::with_engine(Engine::Fusing { block: 16 });
            par.set_threads(threads).set_par_threshold(1);
            par.run(&p).unwrap();
            for name in ["z", "m"] {
                let a = naive.read_by_name(&p, name).unwrap();
                let b = serial.read_by_name(&p, name).unwrap();
                let c = par.read_by_name(&p, name).unwrap();
                assert_eq!(a, b, "{name}: serial fused diverged from naive");
                assert_eq!(b, c, "{name}: {threads} threads diverged from serial fused");
            }
            // Thread count must not change the cost counters (only the
            // purely observational shard count may differ).
            let mut s = *serial.stats();
            let mut q = *par.stats();
            assert!(q.par_shards > 0, "parallel engine must have sharded");
            s.par_shards = 0;
            q.par_shards = 0;
            assert_eq!(s, q);
        }
    }

    #[test]
    fn unfused_slice_ops_shard_across_the_pool() {
        // Shifted 1-D slices are contiguous runs of one length, and the
        // only written base, `s`, is read and written at one offset: the
        // three slice ops fuse into one group, which must shard, and the
        // results must match the serial run exactly.
        let n = 4096;
        let text = format!(
            ".base g f64[{n}]\n.base s f64[{n}]\n\
             BH_RANGE g\n\
             BH_IDENTITY s g\n\
             BH_IDENTITY s[1:{i}:1] g[0:{lim}:1]\n\
             BH_ADD s[1:{i}:1] s[1:{i}:1] g[2:{n}:1]\n\
             BH_MULTIPLY s[1:{i}:1] s[1:{i}:1] 0.5\n\
             BH_SYNC s\n",
            i = n - 1,
            lim = n - 2,
        );
        let p = parse_program(&text).unwrap();
        let engine = Engine::Fusing { block: 256 };
        let mut serial = Vm::with_engine(engine);
        serial.run(&p).unwrap();
        let mut par = Vm::with_engine(engine);
        par.set_threads(4).set_par_threshold(1);
        par.run(&p).unwrap();
        assert!(par.stats().par_shards > 0, "slice ops must have sharded");
        assert_eq!(serial.stats().par_shards, 0);
        assert_eq!(par.stats().fused_groups, 1, "the slice ops fuse");
        assert_eq!(
            serial.read_by_name(&p, "s").unwrap(),
            par.read_by_name(&p, "s").unwrap()
        );
    }

    #[test]
    fn lone_slice_op_shards_across_the_pool() {
        // One shifted slice op between full-view ops of another length
        // runs alone on the compiled step, as a group of one, and must
        // still shard — and match the serial run exactly.
        let n = 4096;
        let text = format!(
            ".base g f64[{n}]\n.base s f64[{n}]\n\
             BH_RANGE g\n\
             BH_IDENTITY s g\n\
             BH_ADD s[1:{i}:1] s[1:{i}:1] g[2:{n}:1]\n\
             BH_SYNC s\n",
            i = n - 1,
        );
        let p = parse_program(&text).unwrap();
        let engine = Engine::Fusing { block: 256 };
        let mut serial = Vm::with_engine(engine);
        serial.run(&p).unwrap();
        let mut par = Vm::with_engine(engine);
        par.set_threads(4).set_par_threshold(1);
        par.run(&p).unwrap();
        assert!(par.stats().par_shards > 0, "the slice op must have sharded");
        assert_eq!(serial.stats().par_shards, 0);
        assert_eq!(par.stats().fused_groups, 0, "a lone op is no group");
        let s = serial.read_by_name(&p, "s").unwrap();
        assert_eq!(s, par.read_by_name(&p, "s").unwrap());
        let want: Vec<f64> = (0..n)
            .map(|k| match k {
                0 => 0.0,
                k if k == n - 1 => k as f64,
                k => (2 * k + 1) as f64,
            })
            .collect();
        assert_eq!(s.to_f64_vec(), want);
    }

    #[test]
    fn compiled_single_step_matches_interpreter_on_every_input_shape() {
        // Every step-input shape of an unfused contiguous instruction, at
        // a small n: another base at an offset (also two of them, shifted
        // apart), a constant, the output's own run (same layout), a
        // disjoint run of the output's base below and above it, both at
        // once, a compare and a predicate, a compare whose bool input is
        // the output's own base, an offset cast, an offset rank-2 row
        // block, and a broadcast row that stays on the interpreter. Then
        // the remaining comparisons, `BH_ISINF`, `BH_ARCTAN2`, division,
        // modulo, power, minimum and the i32 bitwise ops, each a compiled
        // single, and a compare of a reversed view, which stays on the
        // interpreter. The
        // naive engine runs all of it on the serial strided interpreter;
        // the fusing engine at 1 and 3 threads must agree bit for bit,
        // with every counter but the shard count identical.
        let n = 37;
        let h = n / 2;
        let text = format!(
            ".base g f64[{n}]\n.base r f64[{n}]\n.base b bool[{n}]\n\
             .base k i32[{n}]\n.base m f64[4,{n}]\n.base q f64[{n}]\n\
             .base j i32[{n}]\n.base t bool[{n}]\n.base u bool[{n}]\n\
             BH_RANGE g\n\
             BH_RANGE r\n\
             BH_RANGE k\n\
             BH_ADD r[2:{n}:1] g[0:{a}:1] 0.25\n\
             BH_MULTIPLY r[1:{b}:1] r[1:{b}:1] 1.5\n\
             BH_SUBTRACT r[0:{h}:1] r[{h}:{hh}:1] r[0:{h}:1]\n\
             BH_ADD r[{h}:{hh}:1] r[0:{h}:1] 1\n\
             BH_SQRT r[0:{h}:1] r[{h}:{hh}:1]\n\
             BH_MAXIMUM r[1:{b}:1] g[0:{a}:1] g[2:{n}:1]\n\
             BH_GREATER b[1:{n}:1] r[0:{b}:1] g[1:{n}:1]\n\
             BH_EQUAL b[0:{h}:1] b[{h}:{hh}:1] b[0:{h}:1]\n\
             BH_LOGICAL_XOR b[{h}:{hh}:1] b[0:{h}:1] b[{h}:{hh}:1]\n\
             BH_ISNAN b[3:{n}:1] r[0:{c}:1]\n\
             BH_IDENTITY g[1:{n}:1] k[0:{b}:1]\n\
             BH_IDENTITY m[1:3:1,:] 2\n\
             BH_MULTIPLY m[3:4:1,:] m[1:2:1,:] g\n\
             BH_ADD m[1:3:1,:] m[1:3:1,:] g\n\
             BH_DIVIDE q[0:{a}:1] r[1:{b}:1] g[2:{n}:1]\n\
             BH_DIVIDE q[{a}:{n}:1] g[{a}:{n}:1] 0\n\
             BH_MOD q[1:{h}:1] q[1:{h}:1] 3\n\
             BH_POWER q[18:27:1] g[0:9:1] 2\n\
             BH_MINIMUM q[27:35:1] q[0:8:1] r[0:8:1]\n\
             BH_ARCTAN2 m[0:1:1,:] g r\n\
             BH_BITWISE_AND j[0:{b}:1] k[1:{n}:1] k[0:{b}:1]\n\
             BH_BITWISE_OR j[1:{n}:1] j[1:{n}:1] 12\n\
             BH_BITWISE_XOR j[0:{h}:1] j[{h}:{hh}:1] k[0:{h}:1]\n\
             BH_LEFT_SHIFT j[{h}:{hh}:1] k[0:{h}:1] 3\n\
             BH_RIGHT_SHIFT j[9:{h}:1] 1000 k[0:9:1]\n\
             BH_GREATER_EQUAL t[0:8:1] g[1:9:1] q[0:8:1]\n\
             BH_LESS t[8:16:1] r[0:8:1] 7\n\
             BH_LESS_EQUAL t[16:24:1] 3 g[20:28:1]\n\
             BH_NOT_EQUAL t[24:32:1] k[0:8:1] j[0:8:1]\n\
             BH_ISINF t[32:{n}:1] q[32:{n}:1]\n\
             BH_GREATER u g[::-1] r\n\
             BH_SYNC r\nBH_SYNC b\nBH_SYNC g\nBH_SYNC m\n\
             BH_SYNC q\nBH_SYNC j\nBH_SYNC t\nBH_SYNC u\n",
            a = n - 2,
            b = n - 1,
            c = n - 3,
            hh = 2 * h,
        );
        let p = parse_program(&text).unwrap();
        let run = |engine: Engine, threads: usize| {
            let mut vm = Vm::with_engine(engine);
            vm.set_threads(threads).set_par_threshold(1);
            vm.run(&p).unwrap();
            let values: Vec<Tensor> = ["r", "b", "g", "m", "q", "j", "t", "u"]
                .iter()
                .map(|name| vm.read_by_name(&p, name).unwrap())
                .collect();
            (values, *vm.stats())
        };
        let (want, naive) = run(Engine::Naive, 3);
        assert_eq!(naive.par_shards, 0, "naive element-wise work is serial");
        let fusing = Engine::Fusing { block: 4 };
        let (serial_values, serial) = run(fusing, 1);
        let (par_values, par) = run(fusing, 3);
        assert_eq!(
            serial_values, want,
            "compiled steps diverged from the interpreter"
        );
        assert_eq!(par_values, want, "sharded compiled steps diverged");
        assert!(par.par_shards > 0, "the single steps must have sharded");
        assert_eq!(par.fused_groups, 0, "every op here is a single");
        for mut stats in [naive, serial, par] {
            stats.par_shards = 0;
            assert_eq!(
                stats,
                ExecStats {
                    par_shards: 0,
                    ..naive
                }
            );
        }
    }

    #[test]
    fn in_place_steps_match_the_interpreter() {
        // Every input form of an in-place compiled step, which reads its
        // output's run through the output's own pointer: the left input
        // in place, the right one, both, a unary op, and a constant bound
        // on either side; as singles and in a fused group, sharded.
        let text = ".base x f64[37]\n.base y f64[37]\n\
             BH_RANGE x\nBH_RANGE y\n\
             BH_ADD x x y\nBH_SYNC x\n\
             BH_SUBTRACT y x y\nBH_SYNC y\n\
             BH_MULTIPLY x x x\nBH_SYNC x\n\
             BH_SQRT y y\nBH_SYNC y\n\
             BH_ADD x x 1\nBH_DIVIDE x 3 x\nBH_MULTIPLY x x x\nBH_SQRT x x\n\
             BH_SYNC x\nBH_SYNC y\n";
        let p = parse_program(text).unwrap();
        let run = |engine: Engine, threads: usize| {
            let mut vm = Vm::with_engine(engine);
            vm.set_threads(threads).set_par_threshold(1);
            vm.run(&p).unwrap();
            let x = vm.read_by_name(&p, "x").unwrap().to_f64_vec();
            (
                x,
                vm.read_by_name(&p, "y").unwrap().to_f64_vec(),
                *vm.stats(),
            )
        };
        let (x, y, _) = run(Engine::Naive, 1);
        let want_y: Vec<f64> = (0..37).map(|i| (i as f64).sqrt()).collect();
        assert_eq!(y, want_y);
        assert_eq!(x[1], (0.6f64 * 0.6).sqrt()); // 2·1, squared, +1, 3/5, squared
        for threads in [1, 3] {
            let (fx, fy, stats) = run(Engine::Fusing { block: 4 }, threads);
            assert_eq!((&fx, &fy), (&x, &y), "×{threads}");
            assert_eq!(stats.fused_groups, 1);
        }
    }

    #[test]
    fn fused_group_with_input_binding_is_cow_safe() {
        // The bound input is written inside the fused group; the caller's
        // tensor must keep its original values (copy-on-write) while the
        // parallel engine sees the private copy.
        let p = parse_program(
            ".base x f64[64] input\n\
             BH_ADD x x 1\n\
             BH_MULTIPLY x x 2\n\
             BH_SYNC x\n",
        )
        .unwrap();
        let input = Tensor::from_vec(vec![1.0f64; 64]);
        let mut vm = Vm::with_engine(Engine::Fusing { block: 8 });
        vm.set_threads(3).set_par_threshold(1);
        vm.bind_by_name(&p, "x", &input).unwrap();
        vm.run(&p).unwrap();
        assert_eq!(
            vm.read_by_name(&p, "x").unwrap().to_f64_vec(),
            vec![4.0; 64]
        );
        assert_eq!(input.to_f64_vec(), vec![1.0; 64]);
    }

    #[test]
    fn fused_stats_count_instructions_once() {
        // 4 fusable byte-codes over 1000 elements with block 64: the
        // group is one kernel and each instruction counts exactly once,
        // regardless of how many blocks the chain walks.
        let p = parse_program(
            "BH_IDENTITY a0 [0:1000:1] 1\n\
             BH_ADD a0 a0 2\n\
             BH_MULTIPLY a0 a0 a0\n\
             BH_SUBTRACT a0 a0 5\n\
             BH_SYNC a0\n",
        )
        .unwrap();
        let mut vm = Vm::with_engine(Engine::Fusing { block: 64 });
        vm.run(&p).unwrap();
        let s = vm.stats();
        assert_eq!(s.fused_groups, 1);
        assert_eq!(s.kernels, 1); // the whole group is one kernel
        assert_eq!(s.instructions, 5); // 4 element-wise + 1 sync
                                       // Traffic scales with the full array per instruction: identity
                                       // writes 8000B; add/sub read+write 8000B each; multiply reads
                                       // 16000B writes 8000B.
        assert_eq!(s.bytes_written, 4 * 8000);
        assert_eq!(s.bytes_read, 4 * 8000);
    }

    #[test]
    fn fused_chain_feeding_reduction_is_one_kernel() {
        let text = ".base x f64[1000]\n.base s f64[]\n\
                    BH_IDENTITY x 2\n\
                    BH_ADD x x 1\n\
                    BH_MULTIPLY x x x\n\
                    BH_ADD_REDUCE s x 0\n\
                    BH_SYNC s\n";
        let p = parse_program(text).unwrap();
        let mut naive = Vm::new();
        naive.run(&p).unwrap();
        let want = naive.read_by_name(&p, "s").unwrap();
        assert_eq!(want.to_f64_vec(), vec![9000.0]);
        assert_eq!(naive.stats().fused_reductions, 0);

        let mut vm = Vm::with_engine(Engine::Fusing { block: 64 });
        vm.run(&p).unwrap();
        let s = vm.stats();
        // Chain + reduction execute as one kernel, counters analytic:
        // 3 element-wise + 1 reduction + 1 sync instructions.
        assert_eq!(s.kernels, 1);
        assert_eq!(s.fused_groups, 1);
        assert_eq!(s.fused_reductions, 1);
        assert_eq!(s.instructions, naive.stats().instructions);
        assert_eq!(s.bytes_read, naive.stats().bytes_read);
        assert_eq!(s.bytes_written, naive.stats().bytes_written);
        assert_eq!(s.flops, naive.stats().flops);
        assert_eq!(vm.read_by_name(&p, "s").unwrap(), want);
    }

    #[test]
    fn a_fused_chain_feeding_a_reduction_shards_at_two_threads() {
        // Small enough for miri: two canonical reduction blocks, the
        // second a short tail, the smallest run that shards the fused
        // reduction over two threads. `x` is written by the chain and
        // read by the fold through the run's one root of it.
        let n = bh_tensor::kernels::REDUCE_BLOCK + 8;
        let text = format!(
            ".base x f64[{n}]\n.base s f64[]\n\
             BH_RANGE x\n\
             BH_MULTIPLY x x 0.5\n\
             BH_ADD x x 1\n\
             BH_ADD_REDUCE s x 0\n\
             BH_SYNC s\n"
        );
        let p = parse_program(&text).unwrap();
        let mut naive = Vm::new();
        naive.run(&p).unwrap();
        let want = naive.read_by_name(&p, "s").unwrap();
        for (threads, shards) in [(1, 0), (2, 2)] {
            let mut vm = Vm::with_engine(Engine::Fusing { block: 64 });
            vm.set_threads(threads).set_par_threshold(1);
            vm.run(&p).unwrap();
            assert_eq!(vm.read_by_name(&p, "s").unwrap(), want, "{threads} threads");
            let s = vm.stats();
            assert_eq!((s.fused_reductions, s.reduce_shards), (1, shards));
        }
    }

    #[test]
    fn fused_reduction_matches_unfused_at_every_thread_count() {
        // Long enough to span several canonical partial blocks; the float
        // sum must come out bit-identical on every engine × thread count.
        let n = 20_000;
        let text = format!(
            ".base x f64[{n}]\n.base s f64[]\n\
             BH_RANGE x\n\
             BH_MULTIPLY x x 0.001\n\
             BH_ADD x x 1\n\
             BH_ADD_REDUCE s x 0\n\
             BH_SYNC s\n"
        );
        let p = parse_program(&text).unwrap();
        let mut reference: Option<Tensor> = None;
        for engine in [Engine::Naive, Engine::Fusing { block: 512 }] {
            for threads in [1usize, 2, 3, 4] {
                let mut vm = Vm::with_engine(engine);
                vm.set_threads(threads).set_par_threshold(1);
                vm.run(&p).unwrap();
                let got = vm.read_by_name(&p, "s").unwrap();
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert_eq!(&got, want, "engine {engine:?} × {threads} threads diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_reduction_and_scan_record_shards() {
        let n = 50_000;
        let text = format!(
            ".base x f64[{n}] input\n.base s f64[]\n.base c f64[{n}]\n\
             BH_ADD_REDUCE s x 0\n\
             BH_ADD_ACCUMULATE c x 0\n\
             BH_SYNC s\nBH_SYNC c\n"
        );
        let p = parse_program(&text).unwrap();
        let x = Tensor::from_vec((0..n).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
        let mut serial = Vm::new();
        serial.bind_by_name(&p, "x", &x).unwrap();
        serial.run(&p).unwrap();
        assert_eq!(serial.stats().reduce_shards, 0);

        let mut par = Vm::new();
        par.set_threads(4).set_par_threshold(1);
        par.bind_by_name(&p, "x", &x).unwrap();
        par.run(&p).unwrap();
        assert!(
            par.stats().reduce_shards > 0,
            "sharded folds must be observable: {}",
            par.stats()
        );
        // Observability only — results and analytic counters unchanged.
        assert_eq!(par.stats().instructions, serial.stats().instructions);
        assert_eq!(par.stats().kernels, serial.stats().kernels);
        assert_eq!(
            par.read_by_name(&p, "s").unwrap(),
            serial.read_by_name(&p, "s").unwrap()
        );
        assert_eq!(
            par.read_by_name(&p, "c").unwrap(),
            serial.read_by_name(&p, "c").unwrap()
        );

        // Scans shard by lane only: a single lane runs inline, a
        // multi-lane scan spreads its lanes over the pool.
        let lone = format!(
            ".base x f64[{n}] input\n.base c f64[{n}]\n\
             BH_ADD_ACCUMULATE c x 0\nBH_SYNC c\n"
        );
        let lanes = ".base x f64[8,8192] input\n.base c f64[8,8192]\n\
                     BH_ADD_ACCUMULATE c x 1\nBH_SYNC c\n";
        for (text, sharded) in [(lone.as_str(), false), (lanes, true)] {
            let p = parse_program(text).unwrap();
            let shape = p.bases()[0].shape.clone();
            let vals = (0..shape.nelem()).map(|i| i as f64 * 0.5).collect();
            let x = Tensor::from_shape_vec(shape, vals).unwrap();
            let mut vm = Vm::new();
            vm.set_threads(4).set_par_threshold(1);
            vm.bind_by_name(&p, "x", &x).unwrap();
            vm.run(&p).unwrap();
            assert_eq!(vm.stats().reduce_shards > 0, sharded, "{text}");
        }
    }

    #[test]
    fn strided_view_reduction_avoids_materialise_and_matches() {
        // Reduce every other element; direct-borrow path handles the
        // strided lane without a copy, parallel or not.
        let text = ".base x i64[101] input\n.base s i64[]\n\
                    BH_ADD_REDUCE s x [0:101:2] 0\n\
                    BH_SYNC s\n";
        let p = parse_program(text).unwrap();
        let x = Tensor::from_vec((0..101i64).collect::<Vec<_>>());
        let want: i64 = (0..101i64).step_by(2).sum();
        for threads in [1usize, 4] {
            let mut vm = Vm::new();
            vm.set_threads(threads).set_par_threshold(1);
            vm.bind_by_name(&p, "x", &x).unwrap();
            vm.run(&p).unwrap();
            assert_eq!(
                vm.read_by_name(&p, "s").unwrap().to_f64_vec(),
                vec![want as f64],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn bool_reduction_still_widens_to_i64() {
        let text = ".base b bool[6] input\n.base s i64[]\n\
                    BH_ADD_REDUCE s b 0\n\
                    BH_SYNC s\n";
        let p = parse_program(text).unwrap();
        let b = Tensor::from_vec(vec![true, false, true, true, false, true]);
        let mut vm = Vm::new();
        vm.bind_by_name(&p, "b", &b).unwrap();
        vm.run(&p).unwrap();
        let s = vm.read_by_name(&p, "s").unwrap();
        assert_eq!(s.dtype(), DType::Int64);
        assert_eq!(s.to_f64_vec(), vec![4.0]);
    }

    #[test]
    fn in_place_scan_keeps_materialise_semantics() {
        // x = cumsum(x): output register aliases the input; the engine
        // must snapshot the input rather than read half-written data.
        let text = ".base x f64[5] input\nBH_ADD_ACCUMULATE x x 0\nBH_SYNC x\n";
        let p = parse_program(text).unwrap();
        let x = Tensor::from_vec(vec![1.0f64, 2.0, 3.0, 4.0, 5.0]);
        let mut vm = Vm::new();
        vm.set_threads(4).set_par_threshold(1);
        vm.bind_by_name(&p, "x", &x).unwrap();
        vm.run(&p).unwrap();
        assert_eq!(
            vm.read_by_name(&p, "x").unwrap().to_f64_vec(),
            vec![1.0, 3.0, 6.0, 10.0, 15.0]
        );
    }

    #[test]
    fn invalid_program_rejected_before_execution() {
        let p = parse_program("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n").unwrap();
        let mut vm = Vm::new();
        assert!(matches!(vm.run(&p), Err(VmError::Invalid(_))));
    }

    /// The op dispatch instantiates a float-only op-code for f32 and f64
    /// only, and a bitwise or logical one for bool and the integers only;
    /// any other pairing would reach an `unreachable!` in a kernel. The
    /// verifier keeps every such program from running, on both engines.
    #[test]
    fn op_codes_outside_their_dtypes_never_reach_the_dispatch() {
        for text in [
            ".base x i32[4] input\n.base y i32[4]\nBH_SQRT y x\nBH_SYNC y\n",
            ".base x f64[4] input\n.base y f64[4]\nBH_LEFT_SHIFT y x 1\nBH_SYNC y\n",
            ".base x f32[4] input\n.base y f32[4]\nBH_INVERT y x\nBH_SYNC y\n",
            ".base x bool[4] input\n.base y bool[4]\nBH_ARCTAN2 y x x\nBH_SYNC y\n",
            ".base y i64[4]\nBH_COS y 1\nBH_SYNC y\n",
            ".base x u8[4] input\n.base y u8[4]\nBH_FLOOR y x\nBH_SYNC y\n",
            ".base x f32[4] input\n.base y f32[4]\nBH_BITWISE_XOR y x x\nBH_SYNC y\n",
        ] {
            let p = parse_program(text).unwrap();
            for engine in [Engine::Naive, Engine::Fusing { block: 4 }] {
                let mut vm = Vm::with_engine(engine);
                match vm.run(&p) {
                    Err(VmError::Invalid(errors)) => assert!(
                        errors.iter().any(|e| e.code() == "V300"),
                        "{text}: {errors:?}"
                    ),
                    other => panic!("{text} was not rejected: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bind_validates_shape_and_dtype() {
        let p = parse_program(".base x f64[4] input\nBH_SYNC x\n").unwrap();
        let mut vm = Vm::new();
        assert!(vm
            .bind_by_name(&p, "x", &Tensor::zeros(DType::Float32, Shape::vector(4)))
            .is_err());
        assert!(vm
            .bind_by_name(&p, "x", &Tensor::zeros(DType::Float64, Shape::vector(5)))
            .is_err());
        assert!(vm
            .bind_by_name(&p, "x", &Tensor::zeros(DType::Float64, Shape::vector(4)))
            .is_ok());
        assert!(vm
            .bind_by_name(
                &p,
                "nosuch",
                &Tensor::zeros(DType::Float64, Shape::vector(4))
            )
            .is_err());
    }

    #[test]
    fn bind_of_an_undeclared_register_is_an_error() {
        let p = parse_program(".base x f64[4] input\nBH_SYNC x\n").unwrap();
        let mut vm = Vm::new();
        let t = Tensor::zeros(DType::Float64, Shape::vector(4));
        assert!(matches!(
            vm.bind(&p, bh_ir::Reg(9), &t),
            Err(VmError::Register { .. })
        ));
    }

    #[test]
    fn read_of_an_undeclared_register_is_an_error() {
        let (p, vm) = run_text("BH_IDENTITY a0 [0:4:1] 1\nBH_SYNC a0\n");
        assert!(matches!(
            vm.read(&p, bh_ir::Reg(9)),
            Err(VmError::Register { .. })
        ));
    }

    #[test]
    fn stats_track_bytes_and_flops() {
        let (_, vm) = run_text(
            "BH_IDENTITY a0 [0:100:1] 1\n\
             BH_ADD a0 a0 1\n\
             BH_SYNC a0\n",
        );
        let s = vm.stats();
        // identity writes 100 f64 = 800B; add reads 800B writes 800B.
        assert_eq!(s.bytes_written, 1600);
        assert_eq!(s.bytes_read, 800);
        assert!(s.flops >= 200);
        assert_eq!(s.elements_written, 200);
    }

    #[test]
    fn elided_views_default_shape() {
        let p = parse_program_with(
            "BH_IDENTITY a0 0\nBH_ADD a0 a0 3\nBH_SYNC a0\n",
            &ParseOptions {
                default_dtype: DType::Float64,
                default_shape: Some(Shape::vector(16)),
            },
        )
        .unwrap();
        let mut vm = Vm::new();
        vm.run(&p).unwrap();
        assert_eq!(
            vm.read_by_name(&p, "a0").unwrap().to_f64_vec(),
            vec![3.0; 16]
        );
    }

    #[test]
    fn reset_clears_state() {
        let (p, mut vm) = run_text("BH_IDENTITY a0 [0:4:1] 1\nBH_SYNC a0\n");
        assert!(vm.read_by_name(&p, "a0").is_ok());
        vm.reset();
        assert!(vm.read_by_name(&p, "a0").is_err());
        assert_eq!(vm.stats().instructions, 0);
    }

    #[test]
    fn recycled_vm_reruns_cleanly() {
        let (p, mut vm) = run_text("BH_IDENTITY a0 [0:4:1] 1\nBH_ADD a0 a0 2\nBH_SYNC a0\n");
        let first = vm.read_by_name(&p, "a0").unwrap();
        let kernels = vm.stats().kernels;
        vm.recycle();
        assert_eq!(vm.stats().kernels, 0);
        assert!(vm.read_by_name(&p, "a0").is_err());
        vm.run(&p).unwrap();
        assert_eq!(vm.read_by_name(&p, "a0").unwrap(), first);
        assert_eq!(vm.stats().kernels, kernels);
    }

    #[test]
    fn broadcast_vector_input() {
        let p = parse_program(
            ".base row f64[3] input\n.base m f64[2,3]\n\
             BH_IDENTITY m 0\n\
             BH_ADD m m row\n\
             BH_SYNC m\n",
        )
        .unwrap();
        let mut vm = Vm::new();
        vm.bind_by_name(&p, "row", &Tensor::from_vec(vec![1.0f64, 2.0, 3.0]))
            .unwrap();
        vm.run(&p).unwrap();
        assert_eq!(
            vm.read_by_name(&p, "m").unwrap().to_f64_vec(),
            vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn unary_math_opcodes() {
        let (p, vm) = run_text(
            ".base x f64[3]\n.base y f64[3]\n\
             BH_IDENTITY x 4\n\
             BH_SQRT y x\n\
             BH_SYNC y\n",
        );
        assert_eq!(vm.read_by_name(&p, "y").unwrap().to_f64_vec(), vec![2.0; 3]);
    }

    #[test]
    fn random_is_deterministic() {
        let text = ".base r f64[32]\nBH_RANDOM r 99\nBH_SYNC r\n";
        let (p1, vm1) = run_text(text);
        let (p2, vm2) = run_text(text);
        assert_eq!(
            vm1.read_by_name(&p1, "r").unwrap(),
            vm2.read_by_name(&p2, "r").unwrap()
        );
    }

    #[test]
    fn transpose_opcode() {
        let p = parse_program(
            ".base a f64[2,3] input\n.base t f64[3,2]\n\
             BH_TRANSPOSE t a\n\
             BH_SYNC t\n",
        )
        .unwrap();
        let mut vm = Vm::new();
        let a = Tensor::from_shape_vec(Shape::matrix(2, 3), vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap();
        vm.bind_by_name(&p, "a", &a).unwrap();
        vm.run(&p).unwrap();
        let t = vm.read_by_name(&p, "t").unwrap();
        assert_eq!(t.get(&[2, 0]).unwrap().as_f64(), 3.0);
        assert_eq!(t.get(&[0, 1]).unwrap().as_f64(), 4.0);
    }
}
