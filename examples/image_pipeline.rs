//! An imaging pipeline in the high-productivity style the paper motivates:
//! normalisation, gamma correction (a `BH_POWER` the optimizer expands)
//! and thresholding on a synthetic detector image.
//!
//! Run with: `cargo run --release --example image_pipeline`

use bh_frontend::Context;
use bh_tensor::{DType, Scalar, Shape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (h, w) = (256, 256);
    let ctx = Context::new();

    // Synthetic detector frame: smooth gradient + seeded noise.
    let gradient = ctx.arange(DType::Float64, h * w);
    let noise = ctx.random(DType::Float64, Shape::vector(h * w), 2024);
    let frame = &gradient / (h * w) as f64 + &noise * 0.05;

    // 1. Normalise to [0, 1]: (x - min) / (max - min).
    //    (min/max are full reductions; the bridge lowers them to
    //    BH_*_REDUCE chains.)
    let lo = frame.min_axis(0);
    let hi = frame.max_axis(0);
    let lo_t = lo.eval()?.to_f64_vec()[0];
    let hi_t = hi.eval()?.to_f64_vec()[0];
    let normalised = (&frame - lo_t) / (hi_t - lo_t);

    // 2. Gamma correction with an integral gamma: x^3. This is the Eq. 1
    //    byte-code — BH_POWER — which power expansion rewrites into two
    //    multiplies.
    let corrected = normalised.powi(3);

    // 3. Threshold mask of "bright" pixels.
    let mask = corrected.gt_scalar(Scalar::F64(0.5));

    let bright = mask.astype(DType::Int64).sum();
    let (count_t, outcome) = bright.eval_outcome()?;
    let count = count_t.to_f64_vec()[0];

    let report = outcome.report();
    println!("== transformation report ==\n{report}");
    println!("== execution counters ==\n{}\n", outcome.exec);

    let expansion_fired = report
        .by_rule
        .iter()
        .any(|(name, n)| *name == "power-expansion" && *n > 0);
    assert!(expansion_fired, "gamma correction should expand x^3");

    let total = (h * w) as f64;
    println!(
        "bright pixels: {count} of {total} ({:.1}%)",
        100.0 * count / total
    );
    // After x^3 gamma on a ~uniform [0,1] image, a pixel is "bright" when
    // x > 0.5^(1/3) ≈ 0.794 — roughly a fifth of the frame.
    let fraction = count / total;
    assert!(
        (0.10..0.35).contains(&fraction),
        "bright fraction {fraction} outside plausible band"
    );
    Ok(())
}
