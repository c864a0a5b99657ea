//! Property test: the analyzer's independently re-derived pattern verdict
//! must agree with the compiler's emitted plan — for every built-in program
//! across a sweep of problem sizes. The runtime dispatches on the plan's
//! pattern (`try_run` asserts the kernel agrees), so divergence here would
//! mean the linter certifies plans for an engine the runtime will never
//! pick.

use dlb_analyze::expected_pattern;
use dlb_compiler::{analyze, compile, programs, Program};

fn assert_agreement(program: &Program) {
    let da = analyze(program);
    let expected = expected_pattern(program, &da)
        .unwrap_or_else(|| panic!("built-in `{}` must have a supported engine", program.name));
    let plan = compile(program)
        .unwrap_or_else(|e| panic!("built-in `{}` must compile: {e}", program.name));
    assert_eq!(
        expected, plan.pattern,
        "analyzer and compiler disagree on `{}`",
        program.name
    );
}

#[test]
fn analyzer_agrees_with_runtime_for_default_builtins() {
    for program in programs::all_builtin() {
        assert_agreement(&program);
    }
}

#[test]
fn agreement_holds_across_problem_size_sweep() {
    // Classification must be a property of the loop nest, not the problem
    // size: sweep sizes and repetition counts for every built-in
    // constructor. (Sizes stay >= 4 so stencil interiors are non-empty —
    // an empty distributed loop is a compile error by design.)
    let sizes = [4i64, 9, 17, 64, 257];
    let reps = [1i64, 2, 5];
    for &n in &sizes {
        for &r in &reps {
            assert_agreement(&programs::matmul(n, r));
            assert_agreement(&programs::sor(n, r));
            assert_agreement(&programs::jacobi(n, r));
            assert_agreement(&programs::quadrature(n, r));
        }
        assert_agreement(&programs::lu(n));
    }
}
