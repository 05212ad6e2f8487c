//! Property-based tests of the TMIR front end and interpreter.

use proptest::prelude::*;
use tmir::ast::{BinOp, Expr, UnOp};
use tmir::interp::{run_source, VmConfig};
use tmir::lex::lex;
use tmir::parse::parse;
use tmir::sites::BarrierTable;
use tmir::types::check;

/// Strategy for arithmetic expressions as (source text, reference value).
fn arith_expr() -> impl Strategy<Value = (String, i64)> {
    let leaf = (0i64..1000).prop_map(|n| (n.to_string(), n));
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..5).prop_map(|((ls, lv), (rs, rv), op)| {
                match op {
                    0 => (format!("({ls} + {rs})"), lv.wrapping_add(rv)),
                    1 => (format!("({ls} - {rs})"), lv.wrapping_sub(rv)),
                    2 => (format!("({ls} * {rs})"), lv.wrapping_mul(rv)),
                    3 => (format!("({ls} < {rs})"), (lv < rv) as i64),
                    _ => (format!("({ls} ^ {rs})"), lv ^ rv),
                }
            }),
            inner.prop_map(|(s, v)| (format!("(-{s})"), v.wrapping_neg())),
        ]
    })
}

proptest! {
    /// The lexer never panics on arbitrary input.
    #[test]
    fn lexer_total(input in ".{0,200}") {
        let _ = lex(&input);
    }

    /// The parser never panics on arbitrary input (it may reject it).
    #[test]
    fn parser_total(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// Parsing + type checking + interpretation agrees with Rust arithmetic.
    #[test]
    fn arithmetic_agrees_with_rust((src, expected) in arith_expr()) {
        let program = format!("fn main() {{ print {src}; }}");
        let result = run_source(&program, VmConfig::default()).expect("evaluates");
        prop_assert_eq!(result.output, vec![expected]);
    }

    /// Weak and strong interpreter runs and the fully optimized bytecode run
    /// (§6 passes + NAIT) of random straight-line field programs agree.
    #[test]
    fn random_field_programs_agree(ops in prop::collection::vec((0usize..3, 0usize..3, 1i64..100), 1..25)) {
        // Build: a 3-field object, a sequence of field updates, print all.
        let mut body = String::new();
        for (dst, src, k) in &ops {
            body.push_str(&format!("o.f{dst} = o.f{src} + {k};\n"));
        }
        let program = format!(
            "class O {{ f0: int, f1: int, f2: int }}\n\
             fn main() {{\n\
               let o: ref O = new O;\n\
               {body}\
               print o.f0; print o.f1; print o.f2;\n\
             }}"
        );
        let weak = run_source(&program, VmConfig::default()).expect("weak runs");
        let checked = check(parse(&program).unwrap()).unwrap();
        let table = BarrierTable::strong(&checked.program);
        let strong = tmir::interp::Vm::new(checked.clone(), VmConfig { table, ..Default::default() })
            .run()
            .expect("strong runs");
        prop_assert_eq!(&weak.output, &strong.output);

        // Full pipeline: bytecode passes + NAIT, on the bytecode VM.
        let mut cp = tmir::compile(&checked, &BarrierTable::strong(&checked.program));
        tmir::bytecode::optimize(&mut cp, tmir::PassOptions::all());
        let (_, removal) = tmir_analysis::nait::analyze_and_remove(&checked.program);
        removal.apply_nait_bytecode(&mut cp);
        let opt = tmir::BytecodeVm::new(cp, tmir::BcVmConfig::default())
            .run()
            .expect("optimized runs");
        prop_assert_eq!(&weak.output, &opt.output);
    }

    /// Atomic blocks around random update sequences do not change
    /// single-threaded results.
    #[test]
    fn atomic_blocks_preserve_single_thread_semantics(
        ops in prop::collection::vec((0usize..3, 1i64..50), 1..15),
        split in 0usize..15,
    ) {
        let mut plain = String::new();
        let mut wrapped = String::new();
        for (i, (f, k)) in ops.iter().enumerate() {
            let stmt = format!("o.f{f} = o.f{f} + {k};\n");
            plain.push_str(&stmt);
            if i == split.min(ops.len() - 1) {
                wrapped.push_str(&format!("atomic {{ {stmt} }}\n"));
            } else {
                wrapped.push_str(&stmt);
            }
        }
        let make = |body: &str| {
            format!(
                "class O {{ f0: int, f1: int, f2: int }}\n\
                 fn main() {{\n\
                   let o: ref O = new O;\n\
                   {body}\
                   print o.f0 + o.f1 * 1000 + o.f2 * 1000000;\n\
                 }}"
            )
        };
        let a = run_source(&make(&plain), VmConfig::default()).unwrap();
        let b = run_source(&make(&wrapped), VmConfig::default()).unwrap();
        prop_assert_eq!(a.output, b.output);
    }
}

proptest! {
    /// Pretty-printing is a parse fixpoint: parse → print → parse → print
    /// is stable, and the reparsed program behaves identically.
    #[test]
    fn print_parse_roundtrip(ops in prop::collection::vec((0usize..3, 0usize..3, 1i64..100), 1..20)) {
        let mut body = String::new();
        for (dst, src, k) in &ops {
            body.push_str(&format!("o.f{dst} = o.f{src} + {k};\n"));
        }
        let program_src = format!(
            "class O {{ f0: int, f1: int, f2: int }}\n\
             fn main() {{\n\
               let o: ref O = new O;\n\
               {body}\
               print o.f0 + o.f1 + o.f2;\n\
             }}"
        );
        let p1 = parse(&program_src).unwrap();
        let printed1 = tmir::pretty::program(&p1);
        let p2 = parse(&printed1).expect("printed program reparses");
        let printed2 = tmir::pretty::program(&p2);
        prop_assert_eq!(&printed1, &printed2, "printing is a fixpoint");
        let a = run_source(&program_src, VmConfig::default()).unwrap();
        let b = run_source(&printed1, VmConfig::default()).unwrap();
        prop_assert_eq!(a.output, b.output);
    }
}

/// Operators exist for completeness of the strategy above.
#[test]
fn binop_coverage_marker() {
    // Not a property: just keep the enums imported and the intent visible.
    let _ = (BinOp::Add, UnOp::Neg, Expr::Null);
}
