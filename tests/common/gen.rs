//! The shared proptest strategies of the property suites. Each builds
//! its programs as text, so the corpus also exercises the parser.

use bohrium_repro::ir::{OpKind, Opcode, ALL_OPCODES};
use bohrium_repro::tensor::DType;
use proptest::prelude::*;
use proptest::strategy::Union;

/// Strategy: a random element-wise program over three same-shape
/// registers. With `input`, `r0` is a seeded input; without, it starts
/// as 1.
pub fn arb_program(
    dtype: &'static str,
    max_len: usize,
    input: bool,
) -> impl Strategy<Value = String> {
    let ops = prop_oneof![
        Just("BH_ADD"),
        Just("BH_SUBTRACT"),
        Just("BH_MULTIPLY"),
        Just("BH_MAXIMUM"),
        Just("BH_MINIMUM"),
    ];
    let operand = prop_oneof![
        Just("r0".to_owned()),
        Just("r1".to_owned()),
        Just("r2".to_owned()),
        (0i64..4).prop_map(|c| c.to_string()),
    ];
    let instr = (ops, 0usize..3, operand.clone(), operand)
        .prop_map(|(op, out, a, b)| format!("{op} r{out} {a} {b}"));
    proptest::collection::vec(instr, 1..max_len).prop_map(move |body| {
        let (r0, head) = if input {
            (" input", "")
        } else {
            ("", "BH_IDENTITY r0 1\n")
        };
        let mut text = format!(
            ".base r0 {dtype}[16]{r0}\n.base r1 {dtype}[16]\n.base r2 {dtype}[16]\n\
             {head}BH_IDENTITY r1 2\nBH_IDENTITY r2 3\n"
        );
        for line in body {
            text.push_str(&line);
            text.push('\n');
        }
        text.push_str("BH_SYNC r0\nBH_SYNC r1\nBH_SYNC r2\n");
        text
    })
}

/// Base length and window length of the sliced-view programs: every
/// partial view is a run of `WINDOW` elements at an offset in
/// `0..=BASE - WINDOW`.
const BASE: usize = 24;
const WINDOW: usize = 8;

/// One instruction of a sliced-view program: (kind, output register,
/// output offset, first-operand kind, second-operand kind, free choice).
type SlicedSpec = (u8, usize, usize, u8, u8, usize);

/// Strategy: a random program over offset windows of one common length
/// on three `dtype` bases, plus a bool base for comparisons and a base of
/// another dtype for casts. Unfused contiguous views at every offset are
/// what the fusing engine runs on its compiled step as groups of one, so
/// this is the strategy that holds that path to the interpreter.
pub fn arb_sliced_program(dtype: &'static str, max_len: usize) -> impl Strategy<Value = String> {
    let offset = 0usize..BASE - WINDOW + 1;
    let spec = (0u8..11, 0usize..3, offset.clone(), 0u8..5, 0u8..5, offset);
    proptest::collection::vec(spec, 1..max_len).prop_map(move |specs| sliced_program(dtype, &specs))
}

fn window(reg: &str, offset: usize) -> String {
    format!("{reg}[{offset}:{}:1]", offset + WINDOW)
}

/// The text of one operand of an instruction writing `r{out}` at
/// offset `o`, and any copy it needs first. Kinds: 0 another register
/// at offset `free`; 1 the output's own window (same layout); 2 a
/// disjoint window of the output's base; 3 a window of the output's
/// base shifted by less than `WINDOW` — the verifier (V500) rejects that
/// alias in place, so it is spelt as a copy into the temporary `temp`
/// first; 4 a constant.
fn sliced_operand(
    dtype: &str,
    kind: u8,
    out: usize,
    o: usize,
    free: usize,
    temp: &str,
) -> (Option<String>, String) {
    let own = format!("r{out}");
    match kind {
        0 => (None, window(&format!("r{}", (out + 1) % 3), free)),
        1 => (None, window(&own, o)),
        2 => {
            let p = if o >= WINDOW { o - WINDOW } else { o + WINDOW };
            (None, window(&own, p))
        }
        3 => {
            let shift = 1 + free % (WINDOW - 1);
            let p = if o + shift <= BASE - WINDOW {
                o + shift
            } else {
                o - shift
            };
            let copy = format!("BH_IDENTITY {temp} {}", window(&own, p));
            (Some(copy), temp.to_owned())
        }
        _ if dtype == "f64" => (None, format!("{}", free as f64 * 0.5 - 2.0)),
        _ => (None, format!("{}", free as i64 - 8)),
    }
}

fn sliced_program(dtype: &str, specs: &[SlicedSpec]) -> String {
    let other = if dtype == "f64" { "i32" } else { "f64" };
    let mut text = format!(
        ".base r0 {dtype}[{BASE}]\n.base r1 {dtype}[{BASE}]\n.base r2 {dtype}[{BASE}]\n\
         .base t0 {dtype}[{WINDOW}]\n.base t1 {dtype}[{WINDOW}]\n\
         .base m bool[{BASE}]\n.base c {other}[{BASE}]\n\
         BH_RANGE r0\nBH_RANGE r1\nBH_MULTIPLY r1 r1 2\nBH_RANGE r2\n\
         BH_IDENTITY m 0\nBH_IDENTITY c 0\n"
    );
    for &(kind, x, o, ka, kb, free) in specs {
        let reg = format!("r{x}");
        let (copy_a, a) = sliced_operand(dtype, ka, x, o, free, "t0");
        let (copy_b, b) = sliced_operand(dtype, kb, x, o, free / 2, "t1");
        // Comparisons read at least one view.
        let (copy_v, v) = sliced_operand(dtype, ka % 4, x, o, free, "t0");
        let line = match kind {
            0..=4 => {
                let op = [
                    "BH_ADD",
                    "BH_SUBTRACT",
                    "BH_MAXIMUM",
                    "BH_MINIMUM",
                    "BH_ADD",
                ][kind as usize];
                text.extend(copy_a.into_iter().chain(copy_b).map(|l| l + "\n"));
                format!("{op} {} {a} {b}", window(&reg, o))
            }
            5 => {
                let c = ["2", "-1", if dtype == "f64" { "0.5" } else { "3" }][free % 3];
                text.extend(copy_a.map(|l| l + "\n"));
                format!("BH_MULTIPLY {} {a} {c}", window(&reg, o))
            }
            6 => {
                let op = ["BH_GREATER", "BH_LESS_EQUAL", "BH_EQUAL"][free % 3];
                text.extend(copy_v.into_iter().chain(copy_b).map(|l| l + "\n"));
                format!("{op} {} {v} {b}", window("m", o))
            }
            7 => {
                text.extend(copy_a.map(|l| l + "\n"));
                format!("BH_IDENTITY {} {a}", window("c", o))
            }
            8 => format!("BH_IDENTITY {} {}", window(&reg, o), window("c", free)),
            9 => format!("BH_IDENTITY {} {}", window(&reg, o), window("m", free)),
            // Full views: adjacent ones fuse into groups between singles.
            _ => format!("BH_ADD {reg} {reg} r{}", (x + 1) % 3),
        };
        text.push_str(&line);
        text.push('\n');
    }
    text.push_str("BH_SYNC r0\nBH_SYNC r1\nBH_SYNC r2\nBH_SYNC m\nBH_SYNC c\n");
    text
}

/// Strategy: one in-place run `r = r ⊕ c` of adds, subtracts and
/// multiplies by constants (and, on floats, divides by ±2ᵏ) on a register
/// that starts as `head`. The f64 constants are dyadic and small, and so
/// are the values `BH_RANGE` starts from, so every intermediate result is
/// exact whatever order the constants fold in.
pub fn arb_affine_run(dtype: &'static str, head: &'static str) -> impl Strategy<Value = String> {
    let step: Union<String> = if dtype == "f64" {
        prop_oneof![
            (-6i64..7).prop_map(|c| format!("BH_ADD r r {}", c as f64 * 0.5)),
            (-6i64..7).prop_map(|c| format!("BH_SUBTRACT r r {}", c as f64 * 0.5)),
            prop_oneof![Just("2"), Just("0.5"), Just("-1"), Just("3")]
                .prop_map(|c| format!("BH_MULTIPLY r r {c}")),
            prop_oneof![Just("2"), Just("-0.5")].prop_map(|c| format!("BH_DIVIDE r r {c}")),
        ]
    } else {
        let c = prop_oneof![
            -9i64..10,
            Just(i64::MAX),
            Just(i64::MIN + 1),
            Just(1i64 << 40)
        ];
        prop_oneof![
            c.clone().prop_map(|c| format!("BH_ADD r r {c}")),
            c.clone().prop_map(|c| format!("BH_SUBTRACT r r {c}")),
            c.prop_map(|c| format!("BH_MULTIPLY r {c} r")),
        ]
    };
    proptest::collection::vec(step, 2..12).prop_map(move |body| {
        let mut text = format!(".base r {dtype}[16]{head}\n");
        for line in body {
            text.push_str(&line);
            text.push('\n');
        }
        text.push_str("BH_SYNC r\n");
        text
    })
}

/// Affine chains as a front end records them: every link writes a fresh
/// register, the register it read is freed after it, and one `BH_SYNC`
/// ends the program. A link adds or subtracts a constant on either side,
/// multiplies, or divides by 2, 4, 0.5, 3 or 10 (0.5 only for floats: it
/// casts to a zero divisor in `i64`); one `BH_MAXIMUM` sits somewhere in
/// the chain.
pub fn arb_front_end_chain(dtype: &'static str) -> impl Strategy<Value = String> {
    let divisors: &'static [&'static str] = if dtype == "f64" {
        &["2", "4", "0.5", "3", "10"]
    } else {
        &["2", "4", "3", "10"]
    };
    let link = prop_oneof![
        (1i64..4, 0usize..2).prop_map(|(c, left)| ("BH_ADD", left == 1, c.to_string())),
        (1i64..4, 0usize..2).prop_map(|(c, left)| ("BH_SUBTRACT", left == 1, c.to_string())),
        (1i64..4).prop_map(|c| ("BH_MULTIPLY", false, c.to_string())),
        (0..divisors.len()).prop_map(move |i| ("BH_DIVIDE", false, divisors[i].to_owned())),
    ];
    (proptest::collection::vec(link, 1..8), 0usize..8, 1i64..4).prop_map(move |(links, at, top)| {
        let n = links.len() + 1;
        let mut text = format!(".base r0 {dtype}[16] input\n");
        for k in 1..=n {
            text.push_str(&format!(".base r{k} {dtype}[16]\n"));
        }
        let mut links = links.into_iter();
        for k in 1..=n {
            let src = format!("r{}", k - 1);
            text.push_str(&match (k - 1 == at % n, links.next()) {
                (true, _) | (_, None) => format!("BH_MAXIMUM r{k} {src} {top}\n"),
                (false, Some((op, true, c))) => format!("{op} r{k} {c} {src}\n"),
                (false, Some((op, false, c))) => format!("{op} r{k} {src} {c}\n"),
            });
            if k > 1 {
                text.push_str(&format!("BH_FREE {src}\n"));
            }
        }
        text.push_str(&format!("BH_SYNC r{n}\n"));
        text
    })
}

/// A rawer variant of [`arb_front_end_chain`]: a link may also update its
/// register in place, and a register a link leaves is freed, synced there
/// or kept to the end. Constants include negatives and exact fractions,
/// divisors include −3, 6 and 7.
pub fn arb_mixed_chain(dtype: &'static str) -> impl Strategy<Value = String> {
    const CONSTANTS: [&str; 9] = ["1", "2", "3", "0.5", "-1", "-2", "4", "0.25", "5"];
    let divisors: &'static [&'static str] = if dtype == "f64" {
        &["2", "4", "0.5", "3", "10", "7", "0.25", "-3", "6"]
    } else {
        &["2", "4", "3", "10", "7", "-3", "6"]
    };
    let link = (0usize..10, 0usize..9, 0usize..6);
    proptest::collection::vec(link, 1..16).prop_map(move |links| {
        let mut decls = format!(".base r0 {dtype}[16] input\n");
        let (mut body, mut kept) = (String::new(), String::new());
        let (mut src, mut fresh) = (0, 1);
        for (op, c, place) in links {
            let out = if place == 0 && src != 0 { src } else { fresh };
            let (c, d) = (CONSTANTS[c], divisors[c % divisors.len()]);
            body.push_str(&match op {
                0 => format!("BH_ADD r{out} {c} r{src}\n"),
                1 | 2 => format!("BH_ADD r{out} r{src} {c}\n"),
                3 => format!("BH_SUBTRACT r{out} {c} r{src}\n"),
                4 => format!("BH_SUBTRACT r{out} r{src} {c}\n"),
                5 | 6 => format!("BH_MULTIPLY r{out} r{src} {c}\n"),
                7 | 8 => format!("BH_DIVIDE r{out} r{src} {d}\n"),
                _ => format!("BH_MAXIMUM r{out} r{src} {c}\n"),
            });
            if out == fresh {
                decls.push_str(&format!(".base r{out} {dtype}[16]\n"));
                fresh += 1;
                match (src, place) {
                    (0, _) => {}
                    (_, 1) => body.push_str(&format!("BH_SYNC r{src}\n")),
                    (_, 2) => kept.push_str(&format!("BH_SYNC r{src}\n")),
                    _ => body.push_str(&format!("BH_FREE r{src}\n")),
                }
            }
            src = out;
        }
        format!("{decls}{body}{kept}BH_SYNC r{src}\n")
    })
}

/// Element-wise op-codes of `kind` whose type rule maps `dtype` to
/// itself: the op-codes a step can run in place on a `dtype` base.
pub fn same_dtype_ops(kind: OpKind, dtype: DType) -> Vec<Opcode> {
    ALL_OPCODES
        .iter()
        .copied()
        .filter(|op| op.kind() == kind && op.result_dtype(dtype) == Ok(dtype))
        .collect()
}

/// Constants a step binds: negative ones only for signed and float
/// dtypes, so every constant is exact in the operating dtype.
fn constants(dtype: DType) -> &'static [&'static str] {
    if dtype == DType::Bool {
        &["0", "1"]
    } else if dtype.is_float() {
        &["-0.75", "0.5", "2", "3"]
    } else if dtype.is_signed_integer() {
        &["-3", "0", "1", "2", "7"]
    } else {
        &["0", "1", "2", "7"]
    }
}

/// One step: op-code index, form, constant index, and a draw that puts
/// it on the offset run `[1:n-1]` instead of the whole base when below 3.
type StepSpec = (usize, u8, usize, u8);

/// A program over two `dtype` bases `a` and `b` of `n` elements whose
/// every step writes `a` (or `b`, for every third step) in place.
fn inplace_program(dtype: DType, n: usize, steps: &[StepSpec]) -> String {
    let ops = same_dtype_ops(OpKind::ElementwiseBinary, dtype);
    let consts = constants(dtype);
    let mut text = format!(".base a {dtype}[{n}] input\n.base b {dtype}[{n}] input\n");
    for (i, &(op, form, c, run_draw)) in steps.iter().enumerate() {
        let op = ops[op % ops.len()];
        let c = consts[c % consts.len()];
        let (out, other) = if i % 3 == 2 { ("b", "a") } else { ("a", "b") };
        let run = |reg: &str| {
            if run_draw < 3 {
                format!("{reg}[1:{}:1]", n - 1)
            } else {
                reg.to_owned()
            }
        };
        let (o, x) = (run(out), run(other));
        let (lhs, rhs) = match form % 5 {
            0 => (o.clone(), c.to_owned()),
            1 => (c.to_owned(), o.clone()),
            2 => (o.clone(), x),
            3 => (x, o.clone()),
            _ => (o.clone(), o.clone()),
        };
        text.push_str(&format!("{op} {o} {lhs} {rhs}\n"));
    }
    text.push_str("BH_SYNC a\nBH_SYNC b\n");
    text
}

pub fn arb_inplace_program(dtype: DType) -> impl Strategy<Value = String> {
    let step = (0usize..64, 0u8..5, 0usize..8, 0u8..10);
    (3usize..40, proptest::collection::vec(step, 1..10))
        .prop_map(move |(n, steps): (usize, Vec<StepSpec>)| inplace_program(dtype, n, &steps))
}

/// One op: op-code, output base, output offset, and two operands, each
/// `(kind, base, offset)` with kind 0 a constant, else a run.
type OpSpec = (u8, usize, usize, (u8, usize, usize), (u8, usize, usize));

const OPS: [&str; 5] = [
    "BH_ADD",
    "BH_SUBTRACT",
    "BH_MULTIPLY",
    "BH_MAXIMUM",
    "BH_IDENTITY",
];

/// The text of a program of `ops` over three `dtype` bases of
/// `len + slack[b]` elements, every run `len` long, then the sum of `b0`.
fn offset_program(dtype: &str, len: usize, slack: [usize; 3], ops: &[OpSpec]) -> String {
    let mut text = format!(".base s {dtype}[]\n");
    for (b, s) in slack.iter().enumerate() {
        text.push_str(&format!(".base b{b} {dtype}[{}] input\n", len + s));
    }
    let run = |b: usize, offset: usize| {
        let o = offset % (slack[b] + 1);
        (o, format!("b{b}[{o}:{}:1]", o + len))
    };
    for &(op, out, out_off, a, b) in ops {
        let op = OPS[op as usize % OPS.len()];
        let (o, out_run) = run(out, out_off);
        let operand = |(kind, base, offset): (u8, usize, usize)| {
            if kind == 0 {
                return format!("{}", offset % 7 + 1);
            }
            let (p, mut text) = run(base, offset);
            // An input on the output's base that overlaps the output run
            // at a shift is an in-place alias the verifier rejects (V500):
            // read the output's own run instead.
            if base == out && p != o && p.abs_diff(o) < len {
                text = out_run.clone();
            }
            text
        };
        if op == "BH_IDENTITY" {
            text.push_str(&format!("{op} {out_run} {}\n", operand(a)));
        } else {
            text.push_str(&format!("{op} {out_run} {} {}\n", operand(a), operand(b)));
        }
    }
    text.push_str("BH_ADD_REDUCE s b0 0\n");
    for reg in ["b0", "b1", "b2", "s"] {
        text.push_str(&format!("BH_SYNC {reg}\n"));
    }
    text
}

fn arb_op() -> impl Strategy<Value = OpSpec> {
    let operand = (0u8..4, 0usize..3, 0usize..64);
    (0u8..5, 0usize..3, 0usize..64, operand.clone(), operand)
}

pub fn arb_offset_program(dtype: &'static str) -> impl Strategy<Value = String> {
    (
        1usize..48,
        (0usize..9, 0usize..9),
        proptest::collection::vec(arb_op(), 1..12),
    )
        .prop_map(move |(len, (s1, s2), ops)| offset_program(dtype, len, [0, s1, s2], &ops))
}
