//! Seeded inputs: per-process call trees, the event streams that walk
//! them, and the reference totals the profiler's output must match.
//!
//! The profiler only ever sees what this module writes into the logs and
//! `<pid>.sym` sidecars; the totals are computed here, independently of
//! the analyzer, by replaying each emitted event through a plain stack.

use std::collections::BTreeMap;

use mcvm::DebugInfo;
use teeperf_core::layout::{EventKind, LogEntry};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_7ee9_e4f0_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Method names are drawn from one pool shared by every process, so the
/// merged fleet view really merges same-named methods across pids.
const METHOD_POOL: u64 = 64;

#[derive(Debug, Clone)]
struct Node {
    /// Index into the process's symbol table.
    method: u16,
    /// Virtual ticks before this node's call and before its return.
    gap: u64,
    children: Vec<usize>,
}

/// The shape parameters drawn for one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub depth: u64,
    pub fanout: u64,
    /// Distinct methods in the symbol table (at least 2).
    pub methods: u64,
    /// Call-tree nodes, the root included.
    pub nodes: u64,
}

/// One profiled process: its symbol table and seeded call tree.
#[derive(Debug, Clone)]
pub struct Program {
    pub debug: DebugInfo,
    pub names: Vec<String>,
    pub shape: Shape,
    nodes: Vec<Node>,
}

impl Program {
    /// Draw a tree breadth first: the root calls `fanout` children,
    /// deeper nodes call `2..=fanout`, down to `depth` levels, until the
    /// tree has `shape.nodes` nodes (fewer only if depth and fan-out
    /// cannot hold that many).
    pub fn generate(rng: &mut Rng, shape: Shape) -> Program {
        let mut pool: Vec<u64> = (0..METHOD_POOL).collect();
        for i in 0..shape.methods as usize {
            let j = rng.range(i as u64, METHOD_POOL - 1) as usize;
            pool.swap(i, j);
        }
        let names: Vec<String> = pool[..shape.methods as usize]
            .iter()
            .map(|i| format!("svc_fn_{i:02}"))
            .collect();
        let debug = DebugInfo::from_functions(names.iter().map(|n| (n.as_str(), 4, 1)));
        let mut nodes = vec![Node {
            method: 0,
            gap: rng.range(1, 3),
            children: Vec::new(),
        }];
        let mut frontier = std::collections::VecDeque::from([(0usize, 0u64)]);
        while let Some((idx, level)) = frontier.pop_front() {
            if level + 1 >= shape.depth {
                continue;
            }
            let kids = if level == 0 {
                shape.fanout
            } else {
                rng.range(2, shape.fanout)
            };
            for _ in 0..kids {
                if nodes.len() as u64 >= shape.nodes {
                    break;
                }
                let child = nodes.len();
                nodes.push(Node {
                    method: rng.range(1, shape.methods - 1) as u16,
                    gap: rng.range(1, 3),
                    children: Vec::new(),
                });
                nodes[idx].children.push(child);
                frontier.push_back((child, level + 1));
            }
        }
        Program {
            debug,
            names,
            shape,
            nodes,
        }
    }
}

/// Calls, inclusive and exclusive ticks of one method.
pub type MethodTotals = (u64, u64, u64);

/// What a correct profile of the emitted events must show.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    pub events: u64,
    pub total_ticks: u64,
    pub methods: BTreeMap<String, MethodTotals>,
}

impl Expected {
    pub fn absorb(&mut self, other: &Expected) {
        self.events += other.events;
        self.total_ticks += other.total_ticks;
        for (name, (c, i, e)) in &other.methods {
            let slot = self.methods.entry(name.clone()).or_default();
            slot.0 += c;
            slot.1 += i;
            slot.2 += e;
        }
    }
}

/// An endless walk of one program's tree (the root is re-entered after
/// every complete walk), plus the reference accounting of every event it
/// emitted.
#[derive(Debug, Clone)]
pub struct Stream {
    pub program: Program,
    /// (node, next child) for every open frame.
    stack: Vec<(usize, usize)>,
    /// Enter tick and callee ticks of every open frame.
    open: Vec<(u64, u64)>,
    tick: u64,
    per_method: Vec<MethodTotals>,
    events: u64,
}

impl Stream {
    pub fn new(program: Program) -> Stream {
        let methods = program.names.len();
        Stream {
            program,
            stack: Vec::new(),
            open: Vec::new(),
            tick: 0,
            per_method: vec![(0, 0, 0); methods],
            events: 0,
        }
    }

    /// The next event of the walk.
    pub fn next_entry(&mut self) -> LogEntry {
        let step = match self.stack.last_mut() {
            None => Some(0),
            Some((node, next)) => {
                let children = &self.program.nodes[*node].children;
                if *next < children.len() {
                    *next += 1;
                    Some(children[*next - 1])
                } else {
                    None
                }
            }
        };
        match step {
            Some(child) => self.call(child),
            None => self.ret(),
        }
    }

    fn call(&mut self, node: usize) -> LogEntry {
        let n = &self.program.nodes[node];
        self.tick += n.gap;
        self.stack.push((node, 0));
        self.open.push((self.tick, 0));
        self.events += 1;
        LogEntry {
            kind: EventKind::Call,
            counter: self.tick,
            addr: self.program.debug.entry_addr(n.method),
            tid: 0,
        }
    }

    fn ret(&mut self) -> LogEntry {
        let (node, _) = self.stack.pop().expect("ret needs an open frame");
        let n = &self.program.nodes[node];
        self.tick += n.gap;
        let (enter, child) = self.open.pop().expect("open mirrors stack");
        let inclusive = self.tick - enter;
        if let Some(parent) = self.open.last_mut() {
            parent.1 += inclusive;
        }
        let m = &mut self.per_method[n.method as usize];
        m.0 += 1;
        m.1 += inclusive;
        m.2 += inclusive - child;
        self.events += 1;
        LogEntry {
            kind: EventKind::Return,
            counter: self.tick,
            addr: self.program.debug.entry_addr(n.method),
            tid: 0,
        }
    }

    /// Returns for every open frame, innermost first: what ends the
    /// stream with a balanced log.
    pub fn close(&mut self) -> Vec<LogEntry> {
        let mut out = Vec::with_capacity(self.stack.len());
        while !self.stack.is_empty() {
            out.push(self.ret());
        }
        out
    }

    /// Events emitted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Current virtual tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Reference totals of everything emitted so far. Only complete calls
    /// count, which is all of them once [`Stream::close`] has run.
    pub fn expected(&self) -> Expected {
        let mut methods = BTreeMap::new();
        let mut total_ticks = 0;
        for (name, totals) in self.program.names.iter().zip(&self.per_method) {
            if totals.0 > 0 {
                methods.insert(name.clone(), *totals);
                total_ticks += totals.2;
            }
        }
        Expected {
            events: self.events,
            total_ticks,
            methods,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_balance_and_totals_add_up() {
        let mut rng = Rng::new(7);
        let program = Program::generate(
            &mut rng,
            Shape {
                depth: 4,
                fanout: 3,
                methods: 10,
                nodes: 20,
            },
        );
        assert_eq!(program.nodes.len(), 20);
        let per_walk = 2 * program.nodes.len() as u64;
        let mut s = Stream::new(program);
        for _ in 0..per_walk * 3 + 5 {
            s.next_entry();
        }
        s.close();
        let e = s.expected();
        assert!(e.events > per_walk * 3 + 5 && e.events.is_multiple_of(2));
        let root = &e.methods[&s.program.names[0]];
        assert_eq!(root.0, 4);
        assert_eq!(e.total_ticks, root.1, "root inclusive covers all time");
    }
}
