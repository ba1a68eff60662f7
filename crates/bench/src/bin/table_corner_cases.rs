//! Corner-case table (the paper's Figures 1–4 as executable checks): the
//! lost-copy, swap, branch-use and branch-with-decrement situations, each
//! translated and verified against the interpreter.

use ossa_bench::quality_variants;
use ossa_destruct::Engine;
use ossa_interp::{same_behaviour, Interpreter};
use ossa_ir::builder::FunctionBuilder;
use ossa_ir::{BinaryOp, CmpOp, Function, InstData};

fn lost_copy() -> Function {
    let mut b = FunctionBuilder::new("fig4_lost_copy", 1);
    let entry = b.create_block();
    let header = b.create_block();
    let exit = b.create_block();
    b.set_entry(entry);
    b.switch_to_block(entry);
    let p = b.param(0);
    let x1 = b.iconst(1);
    b.jump(header);
    b.switch_to_block(header);
    let x3 = b.declare_value();
    let i_next = b.declare_value();
    let x2 = b.phi(vec![(entry, x1), (header, x3)]);
    let i = b.phi(vec![(entry, p), (header, i_next)]);
    let one = b.iconst(1);
    b.func_mut()
        .append_inst(header, InstData::Binary { op: BinaryOp::Add, dst: x3, args: [x2, one] });
    b.func_mut()
        .append_inst(header, InstData::Binary { op: BinaryOp::Sub, dst: i_next, args: [i, one] });
    let zero = b.iconst(0);
    let c = b.cmp(CmpOp::Gt, i_next, zero);
    b.branch(c, header, exit);
    b.switch_to_block(exit);
    b.ret(Some(x2));
    b.finish()
}

fn swap() -> Function {
    let mut b = FunctionBuilder::new("fig3_swap", 1);
    let entry = b.create_block();
    let header = b.create_block();
    let exit = b.create_block();
    b.set_entry(entry);
    b.switch_to_block(entry);
    let p = b.param(0);
    let a1 = b.iconst(1);
    let b1 = b.iconst(2);
    b.jump(header);
    b.switch_to_block(header);
    let a2 = b.declare_value();
    let b2 = b.declare_value();
    let i_next = b.declare_value();
    b.phi_to(a2, vec![(entry, a1), (header, b2)]);
    b.phi_to(b2, vec![(entry, b1), (header, a2)]);
    let i = b.phi(vec![(entry, p), (header, i_next)]);
    let one = b.iconst(1);
    b.func_mut()
        .append_inst(header, InstData::Binary { op: BinaryOp::Sub, dst: i_next, args: [i, one] });
    let zero = b.iconst(0);
    let c = b.cmp(CmpOp::Gt, i_next, zero);
    b.branch(c, header, exit);
    b.switch_to_block(exit);
    let ten = b.iconst(10);
    let scaled = b.binary(BinaryOp::Mul, a2, ten);
    let s = b.binary(BinaryOp::Add, scaled, b2);
    b.ret(Some(s));
    b.finish()
}

/// Figure 1: a φ argument whose predecessor ends with a branch using another
/// value — the copy must be inserted before the branch use.
fn branch_use() -> Function {
    let mut b = FunctionBuilder::new("fig1_branch_use", 2);
    let entry = b.create_block();
    let left = b.create_block();
    let right = b.create_block();
    let join = b.create_block();
    let other = b.create_block();
    b.set_entry(entry);
    b.switch_to_block(entry);
    let u = b.param(0);
    let v = b.param(1);
    b.branch(u, left, right);
    b.switch_to_block(left);
    b.jump(join);
    b.switch_to_block(right);
    // The branch of `right` uses u; the copy for the φ argument v must be
    // inserted before that use.
    b.branch(u, join, other);
    b.switch_to_block(join);
    let w = b.phi(vec![(left, u), (right, v)]);
    b.ret(Some(w));
    b.switch_to_block(other);
    let sum = b.binary(BinaryOp::Add, u, v);
    b.ret(Some(sum));
    b.finish()
}

fn br_dec() -> Function {
    let mut b = FunctionBuilder::new("fig2_br_dec", 1);
    let entry = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    b.set_entry(entry);
    b.switch_to_block(entry);
    let n = b.param(0);
    let zero = b.iconst(0);
    b.jump(body);
    b.switch_to_block(body);
    let u_dec = b.declare_value();
    let t2 = b.declare_value();
    let u = b.phi(vec![(entry, n), (body, u_dec)]);
    let t1 = b.phi(vec![(entry, zero), (body, t2)]);
    b.func_mut().append_inst(body, InstData::Binary { op: BinaryOp::Add, dst: t2, args: [t1, u] });
    b.func_mut().append_inst(
        body,
        InstData::BrDec { counter: u, dec: u_dec, loop_dest: body, exit_dest: exit },
    );
    b.switch_to_block(exit);
    let r = b.binary(BinaryOp::Add, t2, u_dec);
    b.ret(Some(r));
    b.finish()
}

fn main() {
    let cases: Vec<(&str, Function, Vec<i64>)> = vec![
        ("lost copy (Fig. 4)", lost_copy(), vec![1, 2, 5]),
        ("swap (Fig. 3)", swap(), vec![1, 2, 5]),
        ("branch use (Fig. 1)", branch_use(), vec![0, 1]),
        ("branch with decrement (Fig. 2)", br_dec(), vec![2, 3, 7]),
    ];

    println!(
        "{:<32}{:<16}{:>10}{:>12}{:>14}",
        "case", "variant", "copies", "edges split", "correct"
    );
    // All four corner cases run through the batch engine, one batch per
    // variant, and are then checked against the interpreter oracle.
    for (variant, options) in quality_variants() {
        let mut translated: Vec<Function> = cases.iter().map(|(_, f, _)| f.clone()).collect();
        let corpus_stats = Engine::new(options.clone()).run(&mut translated);
        for (((case, func, inputs), work), stats) in
            cases.iter().zip(&translated).zip(&corpus_stats.per_function)
        {
            let mut correct = true;
            for &input in inputs {
                let args = [input, 1];
                let a = Interpreter::new().run(func, &args[..func.num_params as usize]).unwrap();
                let b = Interpreter::new().run(work, &args[..func.num_params as usize]).unwrap();
                correct &= same_behaviour(&a, &b);
            }
            println!(
                "{:<32}{:<16}{:>10}{:>12}{:>14}",
                case, variant, stats.remaining_copies, stats.edges_split, correct
            );
            assert!(correct, "{case} / {variant} produced wrong code");
        }
    }
    println!("\nall corner cases translate correctly under every variant");
}
