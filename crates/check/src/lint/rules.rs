//! The lint's rule names and its one per-file rule, `hot-path-alloc`.
//!
//! A rule is a pure function from a `ScannedFile` token stream to raw
//! findings (the workspace-wide rules live in
//! [`crate::lint::surface`]); the pass in [`crate::lint`] applies
//! allow-comments and test-region exemptions on top. Unwraps, wall-clock
//! reads and hash-order iteration are clippy's, which sees types: the
//! root `clippy.toml` and the `lint` job in `.github/workflows/ci.yml`.

use crate::lint::scanner::ScannedFile;

/// A raw finding before allow and test-region filtering.
#[derive(Debug, Clone)]
pub(crate) struct Finding {
    /// The rule that fired (one of [`RULES`]).
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Rule: no per-delivery heap allocation in delivery-path methods.
pub(crate) const RULE_HOT_ALLOC: &str = "hot-path-alloc";
/// Workspace rule: a `pub` item nothing outside its crate names (see
/// [`crate::lint::surface`]).
pub(crate) const RULE_CRATE_PUB: &str = "crate-pub";
/// Workspace rule: a `pub mod` nothing outside its own file reaches (see
/// [`crate::lint::surface`]).
pub(crate) const RULE_DEAD_MOD: &str = "dead-mod";
/// Workspace rule: a manifest dependency no package source names. It
/// has no allow-comment: the entry is deleted.
pub(crate) const RULE_UNUSED_DEP: &str = "unused-dep";
/// Meta-rule: an allow-comment that suppressed nothing.
pub(crate) const RULE_UNUSED_ALLOW: &str = "unused-allow";

/// Every rule name an allow-comment may reference.
pub(crate) const RULES: &[&str] = &[RULE_HOT_ALLOC, RULE_CRATE_PUB, RULE_DEAD_MOD];

/// The method names that make up the delivery hot path: the sim (or
/// the transport driver) calls these once per message, frame or tick,
/// so anything they allocate is paid per delivery across the whole run.
/// The schedule explorer's per-event loop and its per-run reducer are
/// listed too: they run once per explored event or racing pair.
const HOT_FNS: &[&str] = &[
    "on_message",
    "on_data",
    "on_deliver",
    "on_tick",
    "on_frame",
    "apply_step",
    "handle_message",
    "deliver",
    "publish",
    "mcast",
    "mcast_spanned",
    // The ordering layer's per-message steps (`odp_groupcomm`'s `Orderer`).
    "stamp",
    "on_own",
    "on_assign",
    "try_deliver_causal",
    "assign_total",
    "try_deliver_total",
    "unicast",
    "broadcast",
    "encode_frame",
    "transmit",
    "flush_links",
    "frame_from",
    "run_schedule",
    "branch_candidates",
    "dpor_extensions",
];

/// Per-delivery heap allocation inside hot delivery-path methods.
///
/// Flags, inside any function named in [`HOT_FNS`]: `format!` (builds a
/// `String` per delivery), `.to_string()` / `.to_owned()` / `.to_vec()`
/// (deep copies), `.collect()` (builds a container per delivery — a
/// FIFO hold-back scan once copied every key into a `Vec` per message
/// this way), and `.clone()` *inside a loop* (the per-peer fan-out
/// pattern — clone a handle like `odp_fabric::Payload` instead, or
/// restructure so the last peer takes the value by move). A `.clone()`
/// outside a loop is tolerated: it is a constant per-delivery cost, and
/// handle types make it cheap. Sites with a documented reason carry
/// `// odp-check: allow(hot-path-alloc)`.
pub(crate) fn hot_alloc_rule(file: &ScannedFile) -> Vec<Finding> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            break;
        };
        if !HOT_FNS.contains(&name.text.as_str()) {
            i += 1;
            continue;
        }
        let fn_name = name.text.clone();
        // Find the body `{`; hitting `;` first means a bodiless trait
        // declaration, which has nothing to scan.
        let mut j = i + 2;
        let body_open = loop {
            match toks.get(j).map(|t| t.text.as_str()) {
                Some("{") => break Some(j),
                Some(";") | None => break None,
                _ => j += 1,
            }
        };
        let Some(open) = body_open else {
            i = j;
            continue;
        };
        // Walk the brace-balanced body, tracking which depths are loop
        // bodies so `.clone()` can be scoped to fan-out loops.
        let mut depth = 0usize;
        let mut loop_depths: Vec<usize> = Vec::new();
        let mut pending_loop = false;
        let mut k = open;
        while k < toks.len() {
            let text = toks[k].text.as_str();
            match text {
                "{" => {
                    depth += 1;
                    if pending_loop {
                        loop_depths.push(depth);
                        pending_loop = false;
                    }
                }
                "}" => {
                    if loop_depths.last() == Some(&depth) {
                        loop_depths.pop();
                    }
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "for" | "while" | "loop" => pending_loop = true,
                "format" if toks.get(k + 1).map(|t| t.text.as_str()) == Some("!") => {
                    out.push(Finding {
                        rule: RULE_HOT_ALLOC,
                        line: toks[k].line,
                        message: format!(
                            "`format!` in hot path `{fn_name}` builds a String per \
                             delivery; precompute it or move it off the delivery path"
                        ),
                    });
                }
                "to_string" | "to_owned" | "to_vec"
                    if k > 0
                        && toks[k - 1].text == "."
                        && toks.get(k + 1).map(|t| t.text.as_str()) == Some("(") =>
                {
                    out.push(Finding {
                        rule: RULE_HOT_ALLOC,
                        line: toks[k].line,
                        message: format!(
                            "`.{text}()` in hot path `{fn_name}` deep-copies per \
                             delivery; borrow, intern, or precompute instead"
                        ),
                    });
                }
                "collect"
                    if k > 0
                        && toks[k - 1].text == "."
                        && matches!(toks.get(k + 1).map(|t| t.text.as_str()), Some("(" | ":")) =>
                {
                    out.push(Finding {
                        rule: RULE_HOT_ALLOC,
                        line: toks[k].line,
                        message: format!(
                            "`.collect()` in hot path `{fn_name}` builds a container \
                             per delivery; iterate in place, or keep the container \
                             across calls"
                        ),
                    });
                }
                "clone"
                    if k > 0
                        && toks[k - 1].text == "."
                        && toks.get(k + 1).map(|t| t.text.as_str()) == Some("(")
                        && !loop_depths.is_empty() =>
                {
                    out.push(Finding {
                        rule: RULE_HOT_ALLOC,
                        line: toks[k].line,
                        message: format!(
                            "`.clone()` inside a loop in hot path `{fn_name}` — a \
                             per-peer deep copy; clone a cheap handle (e.g. \
                             odp_fabric::Payload) or let the last peer take the \
                             value by move"
                        ),
                    });
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::scanner::scan;

    #[test]
    fn hot_alloc_fires_on_format_and_to_string() {
        let src = "
            fn on_message(&mut self) {
                let s = format!(\"x{}\", 1);
                let t = name.to_string();
                let o = name.to_owned();
                let v = bytes.to_vec();
            }
        ";
        let f = hot_alloc_rule(&scan(src));
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|f| f.rule == RULE_HOT_ALLOC));
    }

    #[test]
    fn hot_alloc_fires_on_collect_with_or_without_a_turbofish() {
        let src = "
            fn on_data(&mut self) {
                let keys: Vec<u64> = self.holdback.keys().copied().collect();
                let peers = self.view.iter().collect::<Vec<_>>();
                let n = collect(self);
            }
        ";
        let f = hot_alloc_rule(&scan(src));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.message.contains(".collect()")));
    }

    #[test]
    fn hot_alloc_covers_the_send_side_and_the_frame_codec() {
        for name in [
            "mcast",
            "mcast_spanned",
            "unicast",
            "broadcast",
            "on_frame",
            "encode_frame",
        ] {
            let src = format!(
                "fn {name}(&mut self) {{
                    let targets: Vec<NodeId> = self.peers.keys().copied().collect();
                    for peer in targets {{ out.push((peer, frame.clone())); }}
                }}"
            );
            let f = hot_alloc_rule(&scan(&src));
            assert_eq!(f.len(), 2, "`{name}` is a hot path: {f:?}");
        }
    }

    #[test]
    fn hot_alloc_covers_the_tcp_drivers_encode_and_flush() {
        // In the driver core, `transmit` and `frame_from` run once per
        // frame and `flush_links` once per driver turn: the flush walks
        // its links in place.
        let src = "
            fn transmit(&mut self, to: NodeId, frame: &Frame<M>) {
                let bytes = encode_frame(frame, max).to_vec();
            }
            fn flush_links(&mut self) {
                let peers: Vec<NodeId> = self.links.keys().copied().collect();
            }
            fn frame_from(&mut self, now: SimTime, from: NodeId, frame: Frame<M>) {
                self.trace(format!(\"{from} sent {frame:?}\"));
            }
        ";
        let f = hot_alloc_rule(&scan(src));
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f[0].message.contains("`transmit`"), "{f:?}");
        assert!(f[1].message.contains("`flush_links`"), "{f:?}");
        assert!(f[2].message.contains("`frame_from`"), "{f:?}");
        let in_place = "
            fn flush_links(&mut self) {
                self.links.retain(|_, link| link.flush());
            }
        ";
        assert!(hot_alloc_rule(&scan(in_place)).is_empty());
    }

    #[test]
    fn hot_alloc_covers_the_explorers_per_event_loop_and_reducer() {
        // `run_schedule` steps once per explored event, `branch_candidates`
        // scans once per step, `dpor_extensions` walks every racing pair.
        let src = "
            fn run_schedule(&mut self) {
                loop { let asleep = sleep.clone(); }
            }
            fn branch_candidates(pending: &[PendingEvent], out: &mut Vec<Candidate>) {
                let found: Vec<Candidate> = pending.iter().filter_map(cand).collect();
            }
            fn dpor_extensions(&self, data: &RunData) {
                for bp in &data.branch_points { let key = data.taken[..bp.depth].to_vec(); }
            }
        ";
        let f = hot_alloc_rule(&scan(src));
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f[0].message.contains("`run_schedule`"), "{f:?}");
        assert!(f[1].message.contains("`branch_candidates`"), "{f:?}");
        assert!(f[2].message.contains("`dpor_extensions`"), "{f:?}");
        let in_place = "
            fn branch_candidates(pending: &[PendingEvent], out: &mut Vec<Candidate>) {
                out.clear();
                for (idx, ev) in pending.iter().enumerate() { out.push(cand(idx, ev)); }
            }
        ";
        assert!(hot_alloc_rule(&scan(in_place)).is_empty());
    }

    #[test]
    fn hot_alloc_covers_the_total_order_delivery_loop() {
        // `try_deliver_total` runs after every data message and every
        // assignment under total order, and loops over what became
        // deliverable: it takes messages by move out of the hold-back.
        let src = "
            fn try_deliver_total(&mut self, step: &mut Step<P>) {
                let ready: Vec<MsgId> = self.total_assignments.values().copied().collect();
                for id in ready { step.deliver(self.total_waiting[&id].clone()); }
            }
        ";
        let f = hot_alloc_rule(&scan(src));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(
            f.iter().all(|f| f.message.contains("`try_deliver_total`")),
            "{f:?}"
        );
        let by_move = "
            fn try_deliver_total(&mut self, step: &mut Step<P>) {
                while let Some(&Some(id)) = self.total_assignments.front() {
                    let Some(data) = self.total_waiting.remove(&id) else { break };
                    self.total_assignments.pop_front();
                    step.deliver(data);
                }
            }
        ";
        assert!(hot_alloc_rule(&scan(by_move)).is_empty());
    }

    #[test]
    fn hot_alloc_clone_fires_only_inside_loops() {
        let src = "
            fn on_deliver(&mut self, d: Delivery) {
                let once = d.payload.clone();
                for peer in &self.peers {
                    out.push((peer, msg.clone()));
                }
                while busy {
                    let again = msg.clone();
                }
            }
        ";
        let f = hot_alloc_rule(&scan(src));
        assert_eq!(f.len(), 2, "clone outside a loop is tolerated: {f:?}");
    }

    #[test]
    fn hot_alloc_ignores_cold_functions_and_bodiless_decls() {
        let src = "
            trait A { fn on_message(&mut self, m: M); }
            fn setup(&mut self) {
                let s = format!(\"cold path {}\", 1);
                for p in &self.peers { out.push(p.clone()); }
            }
        ";
        assert!(hot_alloc_rule(&scan(src)).is_empty());
    }

    #[test]
    fn hot_alloc_clone_scope_ends_with_the_loop() {
        let src = "
            fn handle_message(&mut self) {
                for p in &self.peers { touch(p); }
                let after = msg.clone();
            }
        ";
        assert!(
            hot_alloc_rule(&scan(src)).is_empty(),
            "clone after the loop closes is not per-peer"
        );
    }
}
