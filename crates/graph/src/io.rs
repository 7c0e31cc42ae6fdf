//! Graph serialization: METIS `.graph` format and weighted edge lists.
//!
//! The METIS format (Karypis & Kumar) is the lingua franca of partitioning
//! tools; supporting it lets the suite exchange instances with METIS, KaHIP,
//! Chaco conversions, and published benchmark archives.
//!
//! Header: `n m [fmt] [ncon]`, then one line per vertex. With `fmt = "001"`
//! each line is `v1 w1 v2 w2 …` (1-indexed neighbors, edge weights); with
//! `fmt = "011"` the line is prefixed by the vertex weight. We always write
//! `001` (plus `011` when vertex weights are non-unit) and read `0`, `1`,
//! `001`, `010`, `011`.

use crate::{Graph, GraphBuilder, VertexId};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors arising while parsing a graph file.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural/grammar problem, with a human-readable description.
    Format(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError::Format(msg.into()))
}

/// Writes `g` in METIS format. Edge weights are always emitted; vertex
/// weights are emitted iff any differs from 1.0. Weights are written with
/// enough precision to round-trip f64.
pub fn write_metis<W: Write>(g: &Graph, mut out: W) -> std::io::Result<()> {
    let has_vwgt = g.vertices().any(|v| g.vertex_weight(v) != 1.0);
    let fmt = if has_vwgt { "011" } else { "001" };
    let mut buf = String::new();
    writeln!(buf, "{} {} {}", g.num_vertices(), g.num_edges(), fmt).unwrap();
    for v in g.vertices() {
        let mut first = true;
        if has_vwgt {
            write!(buf, "{}", fmt_w(g.vertex_weight(v))).unwrap();
            first = false;
        }
        for (u, w) in g.edges_of(v) {
            if !first {
                buf.push(' ');
            }
            write!(buf, "{} {}", u + 1, fmt_w(w)).unwrap();
            first = false;
        }
        buf.push('\n');
    }
    out.write_all(buf.as_bytes())
}

fn fmt_w(w: f64) -> String {
    if w.fract() == 0.0 && w.abs() < 1e15 {
        format!("{}", w as i64)
    } else {
        format!("{w}")
    }
}

/// Reads a METIS-format graph.
pub fn read_metis<R: Read>(input: R) -> Result<Graph, ParseError> {
    let reader = BufReader::new(input);
    let mut lines = reader
        .lines()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .filter(|l| !l.trim_start().starts_with('%'))
        .collect::<Vec<_>>()
        .into_iter();

    let header = match lines.next() {
        Some(h) => h,
        None => return format_err("empty file"),
    };
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 {
        return format_err("header must be `n m [fmt] [ncon]`");
    }
    let n: usize = head[0]
        .parse()
        .map_err(|_| ParseError::Format("bad vertex count".into()))?;
    let m: usize = head[1]
        .parse()
        .map_err(|_| ParseError::Format("bad edge count".into()))?;
    let fmt = head.get(2).copied().unwrap_or("0");
    let (has_vwgt, has_ewgt) = match fmt {
        "0" | "00" | "000" => (false, false),
        "1" | "01" | "001" => (false, true),
        "10" | "010" => (true, false),
        "11" | "011" => (true, true),
        other => return format_err(format!("unsupported fmt `{other}`")),
    };

    let mut b = GraphBuilder::with_capacity(n, m);
    let mut v = 0usize;
    for line in lines {
        if v >= n {
            if line.trim().is_empty() {
                continue;
            }
            return format_err("more vertex lines than declared");
        }
        let mut tokens = line.split_whitespace();
        if has_vwgt {
            let w: f64 = match tokens.next() {
                Some(t) => t
                    .parse()
                    .map_err(|_| ParseError::Format(format!("bad vertex weight at line {v}")))?,
                None => 1.0, // empty line: isolated unit-weight vertex
            };
            b.set_vertex_weight(v as VertexId, w);
        }
        while let Some(tok) = tokens.next() {
            let u: usize = tok
                .parse()
                .map_err(|_| ParseError::Format(format!("bad neighbor id `{tok}`")))?;
            if u == 0 || u > n {
                return format_err(format!("neighbor id {u} out of 1..={n}"));
            }
            let w: f64 = if has_ewgt {
                match tokens.next() {
                    Some(t) => t
                        .parse()
                        .map_err(|_| ParseError::Format(format!("bad edge weight `{t}`")))?,
                    None => return format_err("dangling neighbor without weight"),
                }
            } else {
                1.0
            };
            // Each undirected edge appears twice in the file; add it once.
            if u - 1 > v {
                b.add_edge(v as VertexId, (u - 1) as VertexId, w);
            }
        }
        v += 1;
    }
    if v != n {
        return format_err(format!("expected {n} vertex lines, found {v}"));
    }
    let g = b.build();
    if g.num_edges() != m {
        return format_err(format!(
            "header declares {m} edges but file encodes {}",
            g.num_edges()
        ));
    }
    Ok(g)
}

/// Writes `g` as a weighted edge list: a `# n <n>` header then `u v w` lines
/// (0-indexed).
pub fn write_edge_list<W: Write>(g: &Graph, mut out: W) -> std::io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "# n {}", g.num_vertices()).unwrap();
    for (u, v, w) in g.edges() {
        writeln!(buf, "{u} {v} {}", fmt_w(w)).unwrap();
    }
    out.write_all(buf.as_bytes())
}

/// Reads the edge-list format produced by [`write_edge_list`]. Lines
/// starting with `#` other than the `# n` header are comments; `u v` lines
/// without a weight default to 1.0.
pub fn read_edge_list<R: Read>(input: R) -> Result<Graph, ParseError> {
    let reader = BufReader::new(input);
    let mut n: Option<usize> = None;
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut max_id = 0usize;
    for line in reader.lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix('#') {
            let toks: Vec<&str> = rest.split_whitespace().collect();
            if toks.len() == 2 && toks[0] == "n" {
                n = Some(
                    toks[1]
                        .parse()
                        .map_err(|_| ParseError::Format("bad n in header".into()))?,
                );
            }
            continue;
        }
        let toks: Vec<&str> = t.split_whitespace().collect();
        if toks.len() < 2 {
            return format_err(format!("bad edge line `{t}`"));
        }
        let u: usize = toks[0]
            .parse()
            .map_err(|_| ParseError::Format(format!("bad vertex `{}`", toks[0])))?;
        let v: usize = toks[1]
            .parse()
            .map_err(|_| ParseError::Format(format!("bad vertex `{}`", toks[1])))?;
        let w: f64 = match toks.get(2) {
            Some(t) => t
                .parse()
                .map_err(|_| ParseError::Format(format!("bad weight `{t}`")))?,
            None => 1.0,
        };
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w));
    }
    let n = n.unwrap_or(if edges.is_empty() { 0 } else { max_id + 1 });
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v, w) in edges {
        if u >= n || v >= n {
            return format_err(format!("edge ({u},{v}) exceeds declared n={n}"));
        }
        b.add_edge(u as VertexId, v as VertexId, w);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid2d, random_geometric};

    fn roundtrip_metis(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_metis(g, &mut buf).unwrap();
        read_metis(&buf[..]).unwrap()
    }

    fn graphs_equal(a: &Graph, b: &Graph) -> bool {
        a.num_vertices() == b.num_vertices()
            && a.edges().collect::<Vec<_>>() == b.edges().collect::<Vec<_>>()
            && a.vertices()
                .all(|v| a.vertex_weight(v) == b.vertex_weight(v))
    }

    #[test]
    fn metis_roundtrip_grid() {
        let g = grid2d(4, 5);
        assert!(graphs_equal(&g, &roundtrip_metis(&g)));
    }

    /// Same CSR arrays and the same bits in every edge and vertex weight:
    /// what a graph shipped as METIS text must keep for a search on it to
    /// match the search on the original bit for bit.
    fn assert_bit_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.xadj(), b.xadj());
        assert_eq!(a.adjncy(), b.adjncy());
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.adjwgt()), bits(b.adjwgt()));
        let vwgt = |g: &Graph| g.vertices().map(|v| g.vertex_weight(v)).collect::<Vec<_>>();
        assert_eq!(bits(&vwgt(a)), bits(&vwgt(b)));
    }

    #[test]
    fn metis_roundtrip_weighted() {
        let g = random_geometric(60, 0.25, 9);
        assert_bit_identical(&g, &roundtrip_metis(&g));
    }

    #[test]
    fn metis_roundtrip_of_a_coarsened_graph_is_bit_exact() {
        let g = random_geometric(400, 0.12, 5);
        let h = crate::Hierarchy::build(&g, 40, 3);
        assert!(h.num_levels() >= 2);
        let coarse = h.coarsest(&g);
        // Summed fractional edge weights and merged vertex weights.
        assert!(coarse.adjwgt().iter().any(|w| w.fract() != 0.0));
        assert!(coarse.vertices().any(|v| coarse.vertex_weight(v) != 1.0));
        assert_bit_identical(coarse, &roundtrip_metis(coarse));
    }

    #[test]
    fn metis_roundtrip_vertex_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 3.0);
        b.set_vertex_weight(0, 7.0);
        let g = b.build();
        let h = roundtrip_metis(&g);
        assert!(graphs_equal(&g, &h));
    }

    #[test]
    fn metis_reads_unweighted() {
        let text = "3 2\n2\n1 3\n2\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn metis_skips_comments() {
        let text = "% a comment\n3 1\n% inner comment\n2\n1\n\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn metis_rejects_bad_header() {
        assert!(read_metis("3\n".as_bytes()).is_err());
        assert!(read_metis("".as_bytes()).is_err());
    }

    #[test]
    fn metis_rejects_wrong_edge_count() {
        let text = "3 5\n2\n1 3\n2\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn metis_rejects_out_of_range_neighbor() {
        let text = "2 1\n5\n1\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = random_geometric(40, 0.3, 4);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert!(graphs_equal(&g, &h));
    }

    #[test]
    fn edge_list_default_weight_and_infer_n() {
        let text = "0 1\n1 2 2.5\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
    }

    #[test]
    fn edge_list_isolated_trailing_vertices() {
        let text = "# n 5\n0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn metis_fmt_010_vertex_weights_only() {
        // 3 vertices, 2 unweighted edges, vertex weights 5/1/2.
        let text = "3 2 010\n5 2\n1 1 3\n2 2\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_weight(0), 5.0);
        assert_eq!(g.vertex_weight(1), 1.0);
        assert_eq!(g.vertex_weight(2), 2.0);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(1.0));
    }

    #[test]
    fn metis_rejects_dangling_weight() {
        // fmt 001 but a neighbor id without its weight
        let text = "2 1 001\n2\n1 4\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn metis_rejects_unknown_fmt() {
        assert!(read_metis("2 0 999\n\n\n".as_bytes()).is_err());
    }

    #[test]
    fn edge_list_rejects_edge_beyond_declared_n() {
        let text = "# n 2\n0 5\n";
        assert!(read_edge_list(text.as_bytes()).is_err());
    }

    #[test]
    fn empty_edge_list_is_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
