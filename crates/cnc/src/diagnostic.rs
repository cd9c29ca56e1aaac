//! The deadlock diagnostic: who is parked on what, and the longest
//! chain of unproduced dependencies among them.

use std::collections::HashMap;

use crate::error::{BlockedWait, DeadlockDiagnostic};

/// One parked dependency reported by a collection's diagnostic probe.
pub(crate) struct ProbeWait {
    /// Identity of the parked instance (stable per instance across its
    /// countdowns, so multi-item waits group correctly).
    pub(crate) instance: usize,
    pub(crate) step: &'static str,
    pub(crate) collection: &'static str,
    pub(crate) key: String,
}

/// Builds the user-facing diagnostic from the raw probe output: a sorted
/// wait list plus the longest alternating instance/item path through
/// shared missing items.
pub(crate) fn build_diagnostic(raw: Vec<ProbeWait>) -> DeadlockDiagnostic {
    let mut waits: Vec<BlockedWait> = raw
        .iter()
        .map(|w| BlockedWait {
            step: w.step,
            collection: w.collection,
            key: w.key.clone(),
        })
        .collect();
    waits.sort_by(|a, b| (a.step, a.collection, &a.key).cmp(&(b.step, b.collection, &b.key)));
    waits.dedup();
    DeadlockDiagnostic {
        longest_chain: longest_chain(&raw),
        waits,
    }
}

/// Longest simple alternating path in the bipartite instance/item
/// wait-for graph, rendered as display strings. Budgeted DFS: the exact
/// longest path is exponential in the worst case, so exploration stops
/// after a fixed number of extensions and reports the best path found.
fn longest_chain(raw: &[ProbeWait]) -> Vec<String> {
    if raw.is_empty() {
        return Vec::new();
    }
    // Index instances and items.
    let mut inst_ids: HashMap<usize, usize> = HashMap::new();
    let mut inst_label: Vec<String> = Vec::new();
    let mut item_ids: HashMap<(&'static str, &str), usize> = HashMap::new();
    let mut item_label: Vec<String> = Vec::new();
    let mut inst_edges: Vec<Vec<usize>> = Vec::new();
    let mut item_edges: Vec<Vec<usize>> = Vec::new();
    for w in raw {
        let ii = *inst_ids.entry(w.instance).or_insert_with(|| {
            inst_label.push(format!("({})", w.step));
            inst_edges.push(Vec::new());
            inst_label.len() - 1
        });
        let ki = *item_ids
            .entry((w.collection, w.key.as_str()))
            .or_insert_with(|| {
                item_label.push(format!("[{}] {}", w.collection, w.key));
                item_edges.push(Vec::new());
                item_label.len() - 1
            });
        inst_edges[ii].push(ki);
        item_edges[ki].push(ii);
    }

    struct Dfs<'a> {
        inst_edges: &'a [Vec<usize>],
        item_edges: &'a [Vec<usize>],
        inst_seen: Vec<bool>,
        item_seen: Vec<bool>,
        budget: usize,
        best: Vec<(bool, usize)>,
        path: Vec<(bool, usize)>,
    }
    impl Dfs<'_> {
        fn visit_inst(&mut self, i: usize) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            self.inst_seen[i] = true;
            self.path.push((true, i));
            if self.path.len() > self.best.len() {
                self.best = self.path.clone();
            }
            for &k in &self.inst_edges[i] {
                if !self.item_seen[k] {
                    self.visit_item(k);
                }
            }
            self.path.pop();
            self.inst_seen[i] = false;
        }
        fn visit_item(&mut self, k: usize) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            self.item_seen[k] = true;
            self.path.push((false, k));
            if self.path.len() > self.best.len() {
                self.best = self.path.clone();
            }
            for &i in &self.item_edges[k] {
                if !self.inst_seen[i] {
                    self.visit_inst(i);
                }
            }
            self.path.pop();
            self.item_seen[k] = false;
        }
    }
    let mut dfs = Dfs {
        inst_edges: &inst_edges,
        item_edges: &item_edges,
        inst_seen: vec![false; inst_edges.len()],
        item_seen: vec![false; item_edges.len()],
        budget: 4096,
        best: Vec::new(),
        path: Vec::new(),
    };
    for i in 0..inst_edges.len() {
        dfs.visit_inst(i);
    }
    dfs.best
        .iter()
        .map(|&(is_inst, idx)| {
            if is_inst {
                inst_label[idx].clone()
            } else {
                item_label[idx].clone()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_chain_links_shared_items() {
        // inst 1 -> item A; inst 2 -> {A, B}; inst 3 -> B: the longest
        // alternating path touches all five nodes.
        let raw = vec![
            ProbeWait {
                instance: 1,
                step: "s1",
                collection: "c",
                key: "A".into(),
            },
            ProbeWait {
                instance: 2,
                step: "s2",
                collection: "c",
                key: "A".into(),
            },
            ProbeWait {
                instance: 2,
                step: "s2",
                collection: "c",
                key: "B".into(),
            },
            ProbeWait {
                instance: 3,
                step: "s3",
                collection: "c",
                key: "B".into(),
            },
        ];
        let d = build_diagnostic(raw);
        assert_eq!(d.waits.len(), 4);
        assert_eq!(d.longest_chain.len(), 5, "{:?}", d.longest_chain);
    }
}
