//! Control/Data Flow Graphs — the hierarchical application model (§3).
//!
//! A [`Cdfg`] mirrors Figure 4 of the paper: the nodes express loops,
//! conditionals, wait statements, functional hierarchy and actual
//! computation (the [`crate::Dfg`]s). For partitioning the hierarchy is
//! flattened into an array of *leaf* BSBs by
//! [`crate::extract_bsbs`]; control nodes carry the profile
//! annotations (loop trip counts, branch probabilities) that determine the
//! leaf profile counts `p_k`.

use crate::BlockCode;
use std::fmt;
use std::sync::Arc;

/// A leaf block of straight-line computation inside the CDFG.
#[derive(Clone, PartialEq, Debug)]
pub struct DfgBlock {
    /// Name of the block (e.g. `B1`, `loop.test`); becomes the BSB name.
    pub name: String,
    /// The computation plus its environment read/write sets.
    pub code: BlockCode,
}

impl DfgBlock {
    /// Creates a named block from built code.
    pub fn new(name: impl Into<String>, code: BlockCode) -> Self {
        DfgBlock {
            name: name.into(),
            code,
        }
    }
}

/// How often a loop body runs per execution of the enclosing scope.
///
/// The paper obtains these from profiling; here they are annotations that
/// a [`crate::ProfileOverrides`] table can replace at extraction time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TripCount {
    /// The loop body executes exactly this many times.
    Fixed(u64),
}

impl TripCount {
    /// The annotated iteration count.
    pub fn count(self) -> u64 {
        match self {
            TripCount::Fixed(n) => n,
        }
    }
}

impl fmt::Display for TripCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.count())
    }
}

/// One node of the control/data-flow graph.
#[derive(Clone, PartialEq, Debug)]
pub enum CdfgNode {
    /// Sequential composition of children.
    Seq(Vec<CdfgNode>),
    /// A leaf data-flow block.
    Block(DfgBlock),
    /// A loop: optional test block, body, and a profile trip count.
    Loop {
        /// Label used to address the loop from profile overrides.
        label: String,
        /// The loop-condition computation, if any (runs `trips + 1` times).
        test: Option<DfgBlock>,
        /// The loop body.
        body: Box<CdfgNode>,
        /// Annotated iteration count per execution of the enclosing scope.
        trip: TripCount,
    },
    /// A two-way conditional: optional test block, branches, taken
    /// probability for the `then` branch.
    Cond {
        /// Label used to address the conditional from profile overrides.
        label: String,
        /// The condition computation, if any.
        test: Option<DfgBlock>,
        /// Branch executed with probability `taken`.
        then_branch: Box<CdfgNode>,
        /// Branch executed with probability `1 - taken`, if present.
        else_branch: Option<Box<CdfgNode>>,
        /// Profile probability that the `then` branch is taken, in `[0,1]`.
        taken: f64,
    },
    /// A wait statement with an optional attached computation.
    Wait {
        /// Label of the wait statement.
        label: String,
        /// Computation performed around the wait, if any.
        block: Option<DfgBlock>,
    },
    /// Functional hierarchy: a named subprogram.
    Func {
        /// The subprogram name.
        name: String,
        /// Its body.
        body: Box<CdfgNode>,
    },
}

impl CdfgNode {
    /// A sequence node from child nodes.
    pub fn seq(children: Vec<CdfgNode>) -> Self {
        CdfgNode::Seq(children)
    }

    /// A leaf node from a named block.
    pub fn block(name: impl Into<String>, code: BlockCode) -> Self {
        CdfgNode::Block(DfgBlock::new(name, code))
    }

    /// Total number of leaf blocks (including loop/cond test blocks).
    pub fn leaf_count(&self) -> usize {
        match self {
            CdfgNode::Seq(cs) => cs.iter().map(CdfgNode::leaf_count).sum(),
            CdfgNode::Block(_) => 1,
            CdfgNode::Loop { test, body, .. } => usize::from(test.is_some()) + body.leaf_count(),
            CdfgNode::Cond {
                test,
                then_branch,
                else_branch,
                ..
            } => {
                usize::from(test.is_some())
                    + then_branch.leaf_count()
                    + else_branch.as_ref().map_or(0, |e| e.leaf_count())
            }
            CdfgNode::Wait { block, .. } => usize::from(block.is_some()),
            CdfgNode::Func { body, .. } => body.leaf_count(),
        }
    }

    /// Total number of operations across all leaf blocks.
    pub fn op_count(&self) -> usize {
        let mut n = 0;
        self.visit_blocks(&mut |b| n += b.code.dfg.len());
        n
    }

    /// Calls `f` on every leaf block, in document order.
    pub fn visit_blocks<'a>(&'a self, f: &mut impl FnMut(&'a DfgBlock)) {
        match self {
            CdfgNode::Seq(cs) => cs.iter().for_each(|c| c.visit_blocks(f)),
            CdfgNode::Block(b) => f(b),
            CdfgNode::Loop { test, body, .. } => {
                if let Some(t) = test {
                    f(t);
                }
                body.visit_blocks(f);
            }
            CdfgNode::Cond {
                test,
                then_branch,
                else_branch,
                ..
            } => {
                if let Some(t) = test {
                    f(t);
                }
                then_branch.visit_blocks(f);
                if let Some(e) = else_branch {
                    e.visit_blocks(f);
                }
            }
            CdfgNode::Wait { block, .. } => {
                if let Some(b) = block {
                    f(b);
                }
            }
            CdfgNode::Func { body, .. } => body.visit_blocks(f),
        }
    }

    /// Renders the hierarchy as an indented ASCII tree (Figure 4 style).
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            CdfgNode::Seq(cs) => {
                for c in cs {
                    c.render_into(out, depth);
                }
            }
            CdfgNode::Block(b) => {
                let _ = writeln!(out, "{pad}DFG {} ({} ops)", b.name, b.code.dfg.len());
            }
            CdfgNode::Loop {
                label,
                test,
                body,
                trip,
            } => {
                let _ = writeln!(out, "{pad}Loop {label} (trip {trip})");
                if let Some(t) = test {
                    let _ = writeln!(out, "{pad}  Test DFG {} ({} ops)", t.name, t.code.dfg.len());
                }
                let _ = writeln!(out, "{pad}  Body");
                body.render_into(out, depth + 2);
            }
            CdfgNode::Cond {
                label,
                test,
                then_branch,
                else_branch,
                taken,
            } => {
                let _ = writeln!(out, "{pad}Cond {label} (taken {taken:.2})");
                if let Some(t) = test {
                    let _ = writeln!(out, "{pad}  Test DFG {} ({} ops)", t.name, t.code.dfg.len());
                }
                let _ = writeln!(out, "{pad}  Branch1");
                then_branch.render_into(out, depth + 2);
                if let Some(e) = else_branch {
                    let _ = writeln!(out, "{pad}  Branch2");
                    e.render_into(out, depth + 2);
                }
            }
            CdfgNode::Wait { label, block } => {
                let _ = writeln!(out, "{pad}Wait {label}");
                if let Some(b) = block {
                    let _ = writeln!(out, "{pad}  DFG {} ({} ops)", b.name, b.code.dfg.len());
                }
            }
            CdfgNode::Func { name, body } => {
                let _ = writeln!(out, "{pad}Fu {name}");
                body.render_into(out, depth + 1);
            }
        }
    }
}

/// A whole application: a named CDFG.
///
/// The graph is immutable once built and shared: cloning a `Cdfg`
/// bumps a reference count and never deep-copies the node tree, so a
/// bundled application's CDFG can back any number of pipelines.
///
/// # Examples
///
/// ```
/// use lycos_ir::{Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
///
/// let mut b = DfgBuilder::new();
/// let t = b.binary(OpKind::Add, "x".into(), "1".into());
/// b.assign("x", t);
/// let body = CdfgNode::block("body", b.finish());
/// let cdfg = Cdfg::new(
///     "counter",
///     CdfgNode::Loop {
///         label: "main".into(),
///         test: None,
///         body: Box::new(body),
///         trip: TripCount::Fixed(10),
///     },
/// );
/// assert_eq!(cdfg.root().leaf_count(), 1);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Cdfg {
    name: Arc<str>,
    root: Arc<CdfgNode>,
}

impl Cdfg {
    /// Creates a named application from its root node.
    pub fn new(name: impl Into<String>, root: CdfgNode) -> Self {
        Cdfg {
            name: name.into().into(),
            root: Arc::new(root),
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root control node.
    pub fn root(&self) -> &CdfgNode {
        &self.root
    }
}

impl fmt::Display for Cdfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cdfg {}", self.name)?;
        f.write_str(&self.root.render_tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, OpKind};

    fn block(name: &str, ops: usize) -> DfgBlock {
        let mut b = DfgBuilder::new();
        for i in 0..ops {
            let id = b.binary(OpKind::Add, "a".into(), "b".into());
            b.assign(format!("t{i}"), id);
        }
        DfgBlock::new(name, b.finish())
    }

    fn sample() -> Cdfg {
        // Mirrors Figure 4: MAIN = Seq[Loop(test,B1), Cond(test,B3,B4), Wait(B5)]
        let root = CdfgNode::seq(vec![
            CdfgNode::Loop {
                label: "l0".into(),
                test: Some(block("B1.test", 1)),
                body: Box::new(CdfgNode::Block(block("B2", 4))),
                trip: TripCount::Fixed(8),
            },
            CdfgNode::Cond {
                label: "c0".into(),
                test: Some(block("B3.test", 1)),
                then_branch: Box::new(CdfgNode::Block(block("B4", 3))),
                else_branch: Some(Box::new(CdfgNode::Block(block("B5", 2)))),
                taken: 0.5,
            },
            CdfgNode::Wait {
                label: "w0".into(),
                block: Some(block("B6", 1)),
            },
        ]);
        Cdfg::new("sample", root)
    }

    #[test]
    fn leaf_count_counts_tests_and_bodies() {
        let c = sample();
        // B1.test, B2, B3.test, B4, B5, B6
        assert_eq!(c.root().leaf_count(), 6);
    }

    #[test]
    fn op_count_sums_leaves() {
        let c = sample();
        assert_eq!(c.root().op_count(), 1 + 4 + 1 + 3 + 2 + 1);
    }

    #[test]
    fn visit_blocks_in_document_order() {
        let c = sample();
        let mut names = Vec::new();
        c.root().visit_blocks(&mut |b| names.push(b.name.clone()));
        assert_eq!(names, vec!["B1.test", "B2", "B3.test", "B4", "B5", "B6"]);
    }

    #[test]
    fn render_tree_mentions_all_constructs() {
        let c = sample();
        let text = c.root().render_tree();
        assert!(text.contains("Loop l0 (trip 8)"));
        assert!(text.contains("Cond c0"));
        assert!(text.contains("Wait w0"));
        assert!(text.contains("DFG B2 (4 ops)"));
    }

    #[test]
    fn func_nodes_nest() {
        let inner = CdfgNode::Block(block("F.body", 2));
        let f = CdfgNode::Func {
            name: "filter".into(),
            body: Box::new(inner),
        };
        assert_eq!(f.leaf_count(), 1);
        assert!(f.render_tree().contains("Fu filter"));
    }

    #[test]
    fn trip_count_display() {
        assert_eq!(format!("{}", TripCount::Fixed(12)), "12");
        assert_eq!(TripCount::Fixed(12).count(), 12);
    }

    #[test]
    fn display_includes_name() {
        let text = format!("{}", sample());
        assert!(text.starts_with("cdfg sample"));
    }
}
