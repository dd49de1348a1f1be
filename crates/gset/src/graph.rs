//! Undirected weighted graphs backing the Max-Cut benchmark instances.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use fecim_ising::MaxCut;

/// Error raised when constructing or parsing a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint is out of range.
    VertexOutOfRange {
        /// Offending vertex id.
        vertex: usize,
        /// Number of vertices of the graph.
        vertex_count: usize,
    },
    /// Self-loops are not allowed.
    SelfLoop(usize),
    /// Weight is not finite.
    NonFiniteWeight {
        /// Edge tail.
        u: usize,
        /// Edge head.
        v: usize,
    },
    /// A Gset text stream could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                vertex_count,
            } => write!(
                f,
                "vertex {vertex} out of range for {vertex_count} vertices"
            ),
            GraphError::SelfLoop(v) => write!(f, "self-loop at vertex {v}"),
            GraphError::NonFiniteWeight { u, v } => {
                write!(f, "non-finite weight on edge ({u}, {v})")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for GraphError {}

/// An undirected, edge-weighted graph: a vertex count and an edge list.
///
/// # Examples
///
/// ```
/// use fecim_gset::Graph;
/// let mut g = Graph::empty(3);
/// g.add_edge(0, 1, 1.0)?;
/// g.add_edge(1, 2, -1.0)?;
/// assert_eq!(g.vertex_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.mean_degree(), 4.0 / 3.0);
/// # Ok::<(), fecim_gset::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl Graph {
    /// Graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Graph {
        Graph::with_edge_capacity(n, 0)
    }

    /// Graph with `n` vertices and no edges, with room for `edges`
    /// edges before the edge list reallocates.
    pub(crate) fn with_edge_capacity(n: usize, edges: usize) -> Graph {
        Graph {
            n,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add an undirected edge.
    ///
    /// # Errors
    ///
    /// See [`GraphError`]; rejects out-of-range endpoints, self-loops and
    /// non-finite weights.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                vertex_count: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                vertex_count: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !w.is_finite() {
            return Err(GraphError::NonFiniteWeight { u, v });
        }
        self.edges.push((u, v, w));
        Ok(())
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge list (each undirected edge once).
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Mean vertex degree.
    pub fn mean_degree(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / self.n as f64
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Convert to a [`MaxCut`] problem instance.
    pub fn to_max_cut(&self) -> MaxCut {
        self.clone().into_max_cut()
    }

    /// Convert to a [`MaxCut`] problem instance, moving the edge list
    /// into it.
    pub fn into_max_cut(self) -> MaxCut {
        // audit:allow(panic-path): every edge was admitted by `add_edge`'s checks (in-range, no self-loops, finite weights), exactly the invariants MaxCut::new validates
        MaxCut::new(self.n, self.edges).expect("graph invariants imply a valid instance")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Graph, GraphError> {
        let mut g = Graph::empty(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }

    #[test]
    fn build_and_query() {
        let g = from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, -1.0)]).unwrap();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edges(), [(0, 1, 1.0), (1, 2, 2.0), (2, 3, -1.0)]);
        assert_eq!(g.total_weight(), 2.0);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            from_edges(2, &[(0, 2, 1.0)]),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            from_edges(2, &[(1, 1, 1.0)]),
            Err(GraphError::SelfLoop(1))
        ));
        assert!(matches!(
            from_edges(2, &[(0, 1, f64::NAN)]),
            Err(GraphError::NonFiniteWeight { .. })
        ));
    }

    #[test]
    fn to_max_cut_preserves_structure() {
        let g = from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mc = g.to_max_cut();
        assert_eq!(mc.vertex_count(), 3);
        assert_eq!(mc.edges(), g.edges());
        assert_eq!(g.into_max_cut(), mc);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.total_weight(), 0.0);
    }
}
