//! The copy-propagation unit tests, run against `value-numbering`.

mod tests {
    use crate::rule::{RewriteCtx, RewriteRule};
    use crate::rules::ValueNumbering;
    use bh_ir::{parse_program, PrintStyle, Program};

    fn run(text: &str) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = ValueNumbering.apply(&mut p, &RewriteCtx::default());
        (p, n)
    }

    #[test]
    fn reads_route_around_the_copy() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_ADD c [0:4:1] b b\n\
             BH_SYNC c\n");
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD c a a"), "{text}");
    }

    #[test]
    fn write_to_source_invalidates() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_IDENTITY a [0:4:1] 9\n\
             BH_ADD c [0:4:1] b b\n\
             BH_SYNC c\n");
        assert_eq!(n, 0);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD c b b"));
    }

    #[test]
    fn write_to_target_invalidates() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_ADD b [0:4:1] b 1\n\
             BH_ADD c [0:4:1] b b\n\
             BH_SYNC c\n");
        // The read inside `b = b + 1` is rewritten to `a` (valid: it reads
        // the copied value), but after that write, b's uses stay.
        assert_eq!(n, 1);
    }

    #[test]
    fn sliced_reads_not_propagated() {
        let (p, n) = run("BH_IDENTITY a [0:8:1] 5\n\
             BH_IDENTITY b [0:8:1] a\n\
             BH_ADD c [0:4:1] b [0:4:1] b [4:8:1]\n\
             BH_SYNC c\n");
        assert_eq!(n, 0);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD c b"));
    }

    #[test]
    fn cast_copies_not_propagated() {
        let (_, n) = run(".base a f64[4]\n.base b i32[4]\n.base c i32[4]\n\
             BH_IDENTITY a 5\n\
             BH_IDENTITY b a\n\
             BH_ADD c b b\n\
             BH_SYNC c\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn free_invalidates_source() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_FREE a\n\
             BH_ADD c [0:4:1] b b\n\
             BH_SYNC c\n");
        assert_eq!(n, 0);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD c b b"));
    }

    #[test]
    fn fills_propagate_where_they_contract_the_read() {
        let (p, n) = run(".base x f64[4] input\n.base t f64[4]\n.base a f64[4]\n\
             BH_IDENTITY t 0\nBH_ADD a x t\nBH_MULTIPLY a a t\nBH_SYNC a\n");
        // Two contractions, and the multiply's read of `a` routed to `x`.
        assert_eq!(n, 3);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(
            text.contains("BH_IDENTITY a x\nBH_IDENTITY a 0.0\n"),
            "{text}"
        );
        // 4 contracts nothing, and `t − x` is no copy of x.
        let (_, n) = run(".base x f64[4] input\n.base t f64[4]\n.base a f64[4]\n\
             BH_IDENTITY t 4\nBH_ADD a x t\nBH_IDENTITY t 0\nBH_SUBTRACT a t x\nBH_SYNC a\n");
        assert_eq!(n, 0);
        // Under strict math `x + 0.0` is no copy of x (−0.0 + 0.0 is +0.0).
        let mut p = parse_program(
            ".base x f64[4] input\n.base t f64[4]\n.base a f64[4]\n\
             BH_IDENTITY t 0\nBH_ADD a x t\nBH_SYNC a\n",
        )
        .unwrap();
        let strict = RewriteCtx {
            fast_math: false,
            ..RewriteCtx::default()
        };
        assert_eq!(ValueNumbering.apply(&mut p, &strict), 0);
    }

    #[test]
    fn chains_of_copies_propagate_transitively() {
        let (p, _) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_IDENTITY c [0:4:1] b\n\
             BH_ADD d [0:4:1] c c\n\
             BH_SYNC d\n");
        // c's copy source is rewritten to a, then d's reads chase to a.
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_IDENTITY c a"), "{text}");
        assert!(text.contains("BH_ADD d a a"), "{text}");
    }
}
