//! Graph (de)serialization: SNAP-style text edge lists and a fast
//! little-endian binary format.
//!
//! The text format is line-oriented: `src dst [prob]`, `#`-prefixed comments,
//! whitespace-separated. When the probability column is omitted the caller's
//! [`WeightingScheme`](crate::WeightingScheme) is expected to assign weights
//! after loading (pass any placeholder scheme-dependent value at build time).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::GraphError;
use crate::{Graph, GraphBuilder, Node};

const MAGIC: &[u8; 8] = b"ATPMGRF1";

/// Parses a text edge list from `reader`.
///
/// * `n` is inferred as `max node id + 1` unless `num_nodes` is given.
/// * `default_prob` is used for two-column lines.
/// * `undirected` inserts both arcs per line.
pub fn read_edge_list<R: Read>(
    reader: R,
    num_nodes: Option<usize>,
    default_prob: f32,
    undirected: bool,
) -> Result<Graph, GraphError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(Node, Node, f32)> = Vec::new();
    let mut max_node: u64 = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse_node = |tok: Option<&str>, what: &str| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let src = parse_node(it.next(), "source")?;
        let dst = parse_node(it.next(), "destination")?;
        let prob = match it.next() {
            Some(tok) => tok.parse::<f32>().map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad probability: {e}"),
            })?,
            None => default_prob,
        };
        if src > u32::MAX as u64 || dst > u32::MAX as u64 {
            return Err(GraphError::Parse {
                line: lineno + 1,
                message: "node id exceeds u32".into(),
            });
        }
        max_node = max_node.max(src).max(dst);
        edges.push((src as Node, dst as Node, prob));
    }
    let n = num_nodes.unwrap_or(if edges.is_empty() {
        0
    } else {
        max_node as usize + 1
    });
    let mut b = GraphBuilder::with_capacity(n, edges.len() * if undirected { 2 } else { 1 });
    for (src, dst, p) in edges {
        if undirected {
            b.add_undirected(src, dst, p)?;
        } else {
            b.add_edge(src, dst, p)?;
        }
    }
    b.try_build()
}

/// Writes `g` as a text edge list (`src dst prob` per line).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# atpm edge list: n={} m={}",
        g.num_nodes(),
        g.num_edges()
    )?;
    for (u, v, p) in g.edges() {
        writeln!(w, "{u} {v} {p}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `g` in the versioned binary format (magic, n, m, then the forward
/// edge array). Little-endian throughout.
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for (u, v, p) in g.edges() {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
        w.write_all(&p.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Node ids are `u32`, so a header claiming more nodes than `u32::MAX + 1`
/// cannot describe an addressable graph — reject it before allocating.
const MAX_BINARY_NODES: u64 = u32::MAX as u64 + 1;

/// Pre-reservation cap for the declared edge count: a corrupt or hostile
/// header may claim up to `u64::MAX` edges, and reserving that up front
/// would abort the process before the truncation check ever runs. Beyond
/// this cap the builder grows on demand and a lying header fails with a
/// clean `truncated` error instead.
const MAX_EDGE_PREALLOC: usize = 1 << 24;

/// Reads a graph previously written by [`write_binary`].
///
/// Every failure mode of an untrusted input — short file, bad magic,
/// truncated edge array, node ids outside the declared range, header counts
/// beyond what the format can address — is reported as a [`GraphError`];
/// this path never panics or aborts on malformed bytes (pinned by the
/// `binary_*` tests below).
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| GraphError::Format("file too short for magic".into()))?;
    if &magic != MAGIC {
        return Err(GraphError::Format(format!(
            "bad magic {:?}; expected {:?}",
            magic, MAGIC
        )));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)
        .map_err(|_| GraphError::Format("missing node count".into()))?;
    let n = u64::from_le_bytes(buf8);
    if n > MAX_BINARY_NODES {
        return Err(GraphError::Format(format!(
            "node count {n} exceeds the u32 id space"
        )));
    }
    let n = n as usize;
    r.read_exact(&mut buf8)
        .map_err(|_| GraphError::Format("missing edge count".into()))?;
    let m64 = u64::from_le_bytes(buf8);
    let m = usize::try_from(m64)
        .map_err(|_| GraphError::Format(format!("edge count {m64} exceeds this platform")))?;
    let mut b = GraphBuilder::with_capacity(n, m.min(MAX_EDGE_PREALLOC));
    let mut rec = [0u8; 12];
    for i in 0..m {
        r.read_exact(&mut rec)
            .map_err(|_| GraphError::Format(format!("truncated at edge {i} of {m}")))?;
        let src = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        let p = f32::from_le_bytes(rec[8..12].try_into().expect("4 bytes"));
        b.add_edge(src, dst, p)?;
    }
    b.try_build()
}

/// Loads a graph from `path`, sniffing the format: files starting with the
/// `ATPMGRF1` magic are read as [`read_binary`], everything else as a text
/// edge list (`n` inferred, `default_prob` for two-column lines, directed).
///
/// Anything but a regular file is refused before it is opened: a device
/// such as `/dev/zero` would feed the text reader one endless line, and
/// opening a FIFO blocks until a writer appears.
pub fn load_auto<P: AsRef<Path>>(path: P, default_prob: f32) -> Result<Graph, GraphError> {
    let path = path.as_ref();
    if !std::fs::metadata(path)?.is_file() {
        return Err(GraphError::Format(format!(
            "{} is not a regular file",
            path.display()
        )));
    }
    let mut file = BufReader::new(std::fs::File::open(path)?);
    let head = file.fill_buf()?;
    if head.starts_with(MAGIC) {
        read_binary(file)
    } else {
        read_edge_list(file, None, default_prob, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.25).unwrap();
        b.add_edge(4, 0, 1.0).unwrap();
        b.build()
    }

    fn edges_of(g: &Graph) -> Vec<(u32, u32, f32)> {
        g.edges().collect()
    }

    #[test]
    fn text_round_trip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], Some(5), 0.1, false).unwrap();
        assert_eq!(edges_of(&g), edges_of(&g2));
    }

    #[test]
    fn binary_round_trip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(edges_of(&g), edges_of(&g2));
    }

    #[test]
    fn text_parses_comments_defaults_and_infers_n() {
        let text = "# comment\n\n0 1\n1 2 0.9\n";
        let g = read_edge_list(text.as_bytes(), None, 0.33, false).unwrap();
        assert_eq!(g.num_nodes(), 3);
        let e = edges_of(&g);
        assert_eq!(e[0], (0, 1, 0.33));
        assert_eq!(e[1], (1, 2, 0.9));
    }

    #[test]
    fn text_undirected_doubles_edges() {
        let g = read_edge_list("0 1 0.5\n".as_bytes(), None, 0.5, true).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_reports_parse_errors_with_line_numbers() {
        let err = read_edge_list("0 1 0.5\nxyz 2\n".as_bytes(), None, 0.5, false).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Parse error, got {other}"),
        }
    }

    /// Hand-assembles a binary file with the given header and edge records.
    fn raw_binary(n: u64, m: u64, edges: &[(u32, u32, f32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        for &(u, v, p) in edges {
            buf.extend_from_slice(&u.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
            buf.extend_from_slice(&p.to_le_bytes());
        }
        buf
    }

    #[test]
    fn binary_rejects_node_id_overflowing_declared_count() {
        // Header says 2 nodes; an edge references node 5. Must surface as a
        // GraphError (NodeOutOfRange via the builder), not a panic.
        let buf = raw_binary(2, 1, &[(0, 5, 0.5)]);
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn binary_rejects_node_count_beyond_u32_id_space() {
        let buf = raw_binary(1u64 << 40, 0, &[]);
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Format(_))));
    }

    #[test]
    fn binary_hostile_edge_count_fails_clean_instead_of_aborting() {
        // A header claiming 2^60 edges must not pre-allocate 2^60 records;
        // it reads what is there and reports truncation.
        let buf = raw_binary(3, 1u64 << 60, &[(0, 1, 0.5)]);
        match read_binary(&buf[..]) {
            Err(GraphError::Format(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_missing_header_fields() {
        // Magic only: node count missing.
        assert!(matches!(
            read_binary(&MAGIC[..]),
            Err(GraphError::Format(_))
        ));
        // Magic + node count, edge count missing.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&3u64.to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Format(_))));
    }

    #[test]
    fn binary_rejects_invalid_probability_records() {
        let buf = raw_binary(2, 1, &[(0, 1, 7.5)]);
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn load_auto_sniffs_binary_and_text() {
        let g = sample_graph();
        let dir = std::env::temp_dir();
        let bin_path = dir.join("atpm_io_test_auto.bin");
        let txt_path = dir.join("atpm_io_test_auto.txt");
        write_binary(&g, std::fs::File::create(&bin_path).unwrap()).unwrap();
        write_edge_list(&g, std::fs::File::create(&txt_path).unwrap()).unwrap();
        let from_bin = load_auto(&bin_path, 0.1).unwrap();
        let from_txt = load_auto(&txt_path, 0.1).unwrap();
        assert_eq!(edges_of(&g), edges_of(&from_bin));
        assert_eq!(edges_of(&g), edges_of(&from_txt));
        let _ = std::fs::remove_file(bin_path);
        let _ = std::fs::remove_file(txt_path);
    }

    #[test]
    fn load_auto_refuses_what_is_not_a_regular_file() {
        for path in [Path::new("/dev/zero"), &std::env::temp_dir()] {
            match load_auto(path, 0.1) {
                Err(GraphError::Format(msg)) => {
                    assert!(msg.contains(&*path.to_string_lossy()), "{msg}");
                    assert!(msg.contains("not a regular file"), "{msg}");
                }
                other => panic!("{}: expected a format error, got {other:?}", path.display()),
            }
        }
    }

    #[test]
    fn binary_rejects_bad_magic_and_truncation() {
        assert!(matches!(
            read_binary(&b"NOTMAGIC"[..]),
            Err(GraphError::Format(_))
        ));
        let g = sample_graph();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Format(_))));
    }
}
