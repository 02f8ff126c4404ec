//! The common-subexpression unit tests, run against `value-numbering`.

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
    fn duplicate_computation_becomes_copy() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_MULTIPLY x [0:4:1] a a\n\
             BH_MULTIPLY y [0:4:1] a a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_IDENTITY y x"), "{text}");
    }

    #[test]
    fn commutative_operands_match_in_either_order() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_IDENTITY b [0:4:1] 4\n\
             BH_ADD x [0:4:1] a b\n\
             BH_ADD y [0:4:1] b a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_IDENTITY y x"));
    }

    #[test]
    fn non_commutative_order_matters() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_IDENTITY b [0:4:1] 4\n\
             BH_SUBTRACT x [0:4:1] a b\n\
             BH_SUBTRACT y [0:4:1] b a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn intervening_write_invalidates() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_MULTIPLY x [0:4:1] a a\n\
             BH_ADD a a 1\n\
             BH_MULTIPLY y [0:4:1] a a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn overwritten_result_invalidates() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_MULTIPLY x [0:4:1] a a\n\
             BH_IDENTITY x 0\n\
             BH_MULTIPLY y [0:4:1] a a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn self_updates_keyed_on_the_prior_value() {
        // a = a + 1 twice is NOT the same value twice: each add is keyed
        // on the value a held before it.
        let (_, n) = run("BH_IDENTITY a [0:4:1] 0\n\
             BH_ADD a a 1\n\
             BH_ADD a a 1\n\
             BH_SYNC a\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn constants_participate_in_keys() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_ADD x [0:4:1] a 1\n\
             BH_ADD y [0:4:1] a 2\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0); // different constants, different expressions
    }

    #[test]
    fn constants_are_keyed_by_printed_value() {
        // `1` of any integer dtype is one constant and `1.0` is another;
        // an integral float ≥ 10¹⁵ prints like (and keys with) the integer.
        let (p, n) = run(".base a f64[4] input\n\
             BH_ADD x [0:4:1] a 1\n\
             BH_ADD y [0:4:1] a 1u8\n\
             BH_ADD z [0:4:1] a 1.0\n\
             BH_ADD v [0:4:1] a 1e15\n\
             BH_ADD w [0:4:1] a 1000000000000000\n\
             BH_SYNC x\nBH_SYNC y\nBH_SYNC z\nBH_SYNC v\nBH_SYNC w\n");
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_IDENTITY y x"), "{text}");
        assert!(text.contains("BH_ADD z a 1.0"), "{text}");
        assert!(text.contains("BH_IDENTITY w v"), "{text}");
    }

    #[test]
    fn value_recomputed_after_invalidation_is_available_again() {
        // x = a+b dies with the write to a; y recomputes it and z (operands
        // swapped) copies y, never the stale x.
        let (p, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_IDENTITY b [0:4:1] 4\n\
             BH_ADD x [0:4:1] a b\n\
             BH_ADD a a 1\n\
             BH_ADD y [0:4:1] a b\n\
             BH_ADD z [0:4:1] b a\n\
             BH_SYNC x\nBH_SYNC y\nBH_SYNC z\n");
        assert_eq!(n, 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_IDENTITY z y"));
    }

    #[test]
    fn sliced_views_distinguish_expressions() {
        let (_, n) = run("BH_IDENTITY a [0:8:1] 3\n\
             BH_MULTIPLY x [0:4:1] a [0:4:1] a [0:4:1]\n\
             BH_MULTIPLY y [0:4:1] a [4:8:1] a [4:8:1]\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }
}
