//! Seeded lint fixture: a native validator — the commit-server role, run
//! by the committing worker — that panics on a verdict it has not filled
//! in, and a worker that invents an abort reason outside the taxonomy.
//! Never compiled — only fed to the lint pass by `lint_workspace.rs`.

impl Validator {
    fn validate_and_reserve(&mut self, txs: &[TxSubmit]) -> Vec<Verdict> {
        // R2 violation: a worker that panics while it holds a reservation
        // leaves a GTS hole every later committer stalls behind.
        let first = self.verdicts.first().unwrap();
        vec![*first; txs.len()]
    }
}

impl NativeWorker {
    fn classify(&self) -> Verdict {
        // R3 usage violation: `ChannelHiccup` is not a taxonomy variant.
        Verdict::Rejected {
            reason: AbortReason::ChannelHiccup,
        }
    }
}
