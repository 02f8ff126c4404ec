//! Quickstart: the paper's Listing 1, end to end.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Reproduces the paper's §3 walk-through: a NumPy-style program records
//! byte-code (Listing 2), the runtime's algebraic transformation engine
//! merges the constants (Listing 3), and the VM executes the optimised
//! sequence. A second evaluation of the same trace is served from the
//! runtime's transformation cache — the fixpoint runs once. Last, a nested
//! expression, recorded as a chain through temporaries, folds to one
//! multiply and one add.

use bh_frontend::Context;
use bh_ir::{Opcode, PrintStyle};
use bh_tensor::{DType, Shape, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Listing 1 — "Adding three ones in Python":
    //     import bohrium as np
    //     a = np.zeros(10)
    //     a += 1; a += 1; a += 1
    //     print a
    let ctx = Context::new();
    let mut a = ctx.zeros(DType::Float64, Shape::vector(10));
    a += 1.0;
    a += 1.0;
    a += 1.0;

    println!("== recorded byte-code (paper Listing 2) ==");
    print!("{}", ctx.recorded_text(PrintStyle::LISTING));

    // Evaluation syncs the result, optimises the sequence and executes it.
    let (result, outcome) = a.eval_outcome()?;
    println!("\n== result ==\n{result}");

    println!("\n== transformation report (Listing 2 -> Listing 3) ==");
    print!("{}", outcome.report());

    println!("\n== execution counters ==\n{}", outcome.exec);

    // Evaluate the same trace again: the runtime recognises the structure
    // and skips the rewrite fixpoint entirely.
    let (_, again) = a.eval_outcome()?;
    assert!(
        again.cache_hit,
        "second eval must hit the transformation cache"
    );
    println!(
        "\n== runtime stats after a repeat eval ==\n{}",
        ctx.runtime().stats()
    );

    assert_eq!(result.to_f64_vec(), vec![3.0; 10]);

    // A nested expression: every step is recorded into a fresh register
    // that is freed once read. The chain through those temporaries is one
    // map, y = 0.75·x + 0.875, and runs as one multiply and one add.
    let ctx = Context::with_runtime(ctx.runtime());
    let x = ctx.array(Tensor::from_vec(vec![0.0f64, 1.0, 2.0, 4.0]));
    let y = (&x * 1.5 + 0.25) * 0.5 + 0.75;
    println!("\n== nested expression, recorded ==");
    print!("{}", ctx.recorded_text(PrintStyle::LISTING));
    let (value, outcome) = y.eval_outcome()?;
    let plan = &outcome.plan.program;
    println!("\n== nested expression, optimised ==");
    print!("{}", plan.to_text(PrintStyle::LISTING));
    assert_eq!(plan.count_op(Opcode::Multiply), 1);
    assert_eq!(plan.count_op(Opcode::Add), 1);
    assert_eq!(value.to_f64_vec(), vec![0.875, 1.625, 2.375, 3.875]);
    Ok(())
}
