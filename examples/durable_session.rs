//! Durable per-user budgets: charge, crash, reopen, and find the exact
//! remaining budget waiting where it was left.
//!
//! A `Session` built with `.registry(ε).durable(path)` gives every
//! principal (user id) their own allowance and write-ahead journals
//! every charge — append + fsync **before** the answer is released, with
//! concurrent charges sharing one fsync (group commit) — so a process
//! kill can lose at most the conservative direction: a charge
//! whose fsync verdict never arrived replays as *spent*, never as
//! forgotten. This example runs two "process lifetimes" over one journal
//! file and verifies, on the exact dyadic carrier, that the second life
//! sees precisely the spend the first life acknowledged.
//!
//! Run with: `cargo run --release --example durable_session`

use sampcert::arith::Dyadic;
use sampcert::core::{PureDp, Request, Session, SessionError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("sampcert-durable-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let journal = dir.join("budgets.scjl");

    // ε = 1/2 per draw: four draws exhaust a principal's ε = 2.
    let req: Request<PureDp, (), i64> = Request::noise(2, 1);

    // ---- first life: create the journal, spend some budget, "crash" ----
    {
        let mut session = Session::<PureDp>::builder()
            .exact() // every charge a Dyadic, comparisons strict
            .registry(2.0) // per-principal allowance ε = 2
            .durable(&journal)? // group-committed write-ahead journal, created here
            .inline()
            .seeded(7)
            .build_per_principal();

        // User 1 spends 3 × ε/2; user 2 spends 1 × ε/2.
        for _ in 0..3 {
            session.answer_for(1, &req, &[])?;
        }
        session.answer_for(2, &req, &[])?;

        println!("first life:");
        println!(
            "  user 1 spent ε = {}",
            session.accountant().registry().spent(1)
        );
        println!(
            "  user 2 spent ε = {}",
            session.accountant().registry().spent(2)
        );
        // The process "dies" here: the session is dropped with no
        // shutdown protocol. Every acknowledged charge is already on
        // disk — that is the write-ahead contract.
    }

    // ---- second life: reopen the same path, recovery replays ----
    let mut session = Session::<PureDp>::builder()
        .exact()
        .registry(2.0)
        .durable(&journal)? // same file: recovery happens inside this call
        .inline()
        .seeded(8)
        .build_per_principal();

    // The replayed spend is exact on the dyadic lattice — not "about
    // 1.5", but three-halves to the quantum.
    let spent_1 = session.accountant().spent_exact(1);
    let spent_2 = session.accountant().spent_exact(2);
    assert_eq!(
        spent_1,
        <Dyadic as sampcert::core::Budget>::charge_from_f64(1.5)
    );
    assert_eq!(
        spent_2,
        <Dyadic as sampcert::core::Budget>::charge_from_f64(0.5)
    );
    println!("second life (recovered from {}):", journal.display());
    println!(
        "  user 1 spent ε = {}  → exactly one ε = 1/2 draw left",
        spent_1.to_f64()
    );
    println!("  user 2 spent ε = {}", spent_2.to_f64());

    // User 1 has exactly one draw of headroom: the fourth fits, the
    // fifth is refused naming them — and the refusal releases nothing.
    session.answer_for(1, &req, &[])?;
    match session.answer_for(1, &req, &[]) {
        Err(SessionError::Budget(refusal)) => {
            println!("  user 1, fifth draw: {refusal}");
            assert_eq!(refusal.principal, Some(1));
        }
        other => panic!("expected a budget refusal, got {other:?}"),
    }
    // User 2 still has ε = 3/2 of headroom.
    session.answer_for(2, &req, &[])?;

    std::fs::remove_dir_all(&dir)?;
    println!("ok: spend survived the crash, exactly");
    Ok(())
}
