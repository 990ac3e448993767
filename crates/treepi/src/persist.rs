//! Index persistence: a compact little-endian binary format so a
//! preprocessed database (the expensive part — mining plus center
//! extraction) is paid once and reloaded instantly, the way the paper's
//! motivating "search and registration systems" operate.
//!
//! Layout (version 3):
//!
//! ```text
//! magic "TPI3"
//! params   σ(α, β, η) γ δ limits
//! database |db| × graph, active bitmap
//! features |F| × { tree-graph, canon, support, center }
//! centers  |F| × { entries × (gid, positions) }
//! stats    shape counters
//! epoch    maintenance epoch (u64)
//! sigs     |db| × { n × (label u32, degree u32, mask u64) }
//! ```
//!
//! The trie is rebuilt from the canonical strings on load; build stats are
//! restored verbatim. Everything is length-prefixed and validated, so a
//! truncated or corrupted file yields an error, never a bad index.
//!
//! The maintenance epoch is part of the format because epoch-keyed result
//! caches survive across save/load boundaries only if the epoch does too:
//! were a reloaded index to restart at 0, a cache that saw epoch N before
//! the reload would conflate pre- and post-reload states (and any
//! maintenance applied between save and reload would be invisible to
//! invalidation). The per-vertex neighborhood signatures ([`crate::sig`])
//! are stored rather than recomputed so a load is a pure decode.
//!
//! Only version 3 loads. Files of the earlier versions (`TPI1`: no epoch;
//! `TPI2`: no signature section) are rejected with an error naming the
//! version — rebuild the index file with this version.

use crate::index::{BuildStats, Feature, TreePiIndex};
use crate::params::{Delta, TreePiParams};
use crate::sig::VertexSig;
use crate::trie::{CanonTrie, FeatureId};
use bytes::{Buf, BufMut};
use graph_core::{EdgeId, Graph, GraphBuilder, VertexId};
use mining::{MiningLimits, SigmaFn};
use rustc_hash::FxHashMap;
use std::io::{self, Read, Write};
use tree_core::{CanonString, CenterPos, Tree};

const MAGIC: &[u8; 4] = b"TPI3";
/// Earlier versions, recognized only to produce a better error.
const MAGIC_V1: &[u8; 4] = b"TPI1";
const MAGIC_V2: &[u8; 4] = b"TPI2";

fn bad(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("treepi index file: {msg}"),
    )
}

fn put_graph(buf: &mut Vec<u8>, g: &Graph) {
    buf.put_u32_le(g.vertex_count() as u32);
    for v in g.vertices() {
        buf.put_u32_le(g.vlabel(v).0);
    }
    buf.put_u32_le(g.edge_count() as u32);
    for e in g.edges() {
        buf.put_u32_le(e.u.0);
        buf.put_u32_le(e.v.0);
        buf.put_u32_le(e.label.0);
    }
}

fn get_graph(buf: &mut &[u8]) -> io::Result<Graph> {
    if buf.remaining() < 4 {
        return Err(bad("truncated graph header"));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 4 {
        return Err(bad("truncated vertex labels"));
    }
    let mut b = GraphBuilder::with_capacity(n, 0);
    for _ in 0..n {
        b.add_vertex(graph_core::VLabel(buf.get_u32_le()));
    }
    if buf.remaining() < 4 {
        return Err(bad("truncated edge count"));
    }
    let m = buf.get_u32_le() as usize;
    if buf.remaining() < m * 12 {
        return Err(bad("truncated edges"));
    }
    for _ in 0..m {
        let u = VertexId(buf.get_u32_le());
        let v = VertexId(buf.get_u32_le());
        let l = graph_core::ELabel(buf.get_u32_le());
        b.add_edge(u, v, l).map_err(|e| bad(&e.to_string()))?;
    }
    Ok(b.build())
}

fn put_u32s(buf: &mut Vec<u8>, xs: impl ExactSizeIterator<Item = u32>) {
    buf.put_u32_le(xs.len() as u32);
    for x in xs {
        buf.put_u32_le(x);
    }
}

fn get_u32s(buf: &mut &[u8]) -> io::Result<Vec<u32>> {
    if buf.remaining() < 4 {
        return Err(bad("truncated length"));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 4 {
        return Err(bad("truncated u32 array"));
    }
    Ok((0..n).map(|_| buf.get_u32_le()).collect())
}

fn put_center_pos(buf: &mut Vec<u8>, p: CenterPos) {
    match p {
        CenterPos::Vertex(v) => {
            buf.put_u8(0);
            buf.put_u32_le(v.0);
        }
        CenterPos::Edge(e) => {
            buf.put_u8(1);
            buf.put_u32_le(e.0);
        }
    }
}

fn get_center_pos(buf: &mut &[u8]) -> io::Result<CenterPos> {
    if buf.remaining() < 5 {
        return Err(bad("truncated center position"));
    }
    let tag = buf.get_u8();
    let id = buf.get_u32_le();
    match tag {
        0 => Ok(CenterPos::Vertex(VertexId(id))),
        1 => Ok(CenterPos::Edge(EdgeId(id))),
        _ => Err(bad("unknown center-position tag")),
    }
}

impl TreePiIndex {
    /// Serialize the index.
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
        buf.put_slice(MAGIC);
        // params
        buf.put_u32_le(self.params.sigma.alpha as u32);
        buf.put_f64_le(self.params.sigma.beta);
        buf.put_u32_le(self.params.sigma.eta as u32);
        buf.put_f64_le(self.params.gamma);
        match self.params.delta {
            Delta::Fixed(n) => {
                buf.put_u8(0);
                buf.put_u64_le(n as u64);
            }
            Delta::QuerySize => {
                buf.put_u8(1);
                buf.put_u64_le(0);
            }
        }
        buf.put_u64_le(self.params.limits.max_patterns as u64);
        buf.put_u64_le(self.params.limits.max_candidates_per_level as u64);
        // database
        buf.put_u32_le(self.db.len() as u32);
        for g in &self.db {
            put_graph(&mut buf, g);
        }
        for &a in &self.active {
            buf.put_u8(a as u8);
        }
        // features
        buf.put_u32_le(self.features.len() as u32);
        for f in &self.features {
            put_graph(&mut buf, f.tree.graph());
            put_u32s(&mut buf, f.canon.tokens().iter().copied());
            put_u32s(&mut buf, f.support.iter().copied());
        }
        // centers
        for per_graph in &self.centers {
            buf.put_u32_le(per_graph.len() as u32);
            let mut entries: Vec<(&u32, &Vec<CenterPos>)> = per_graph.iter().collect();
            entries.sort_by_key(|(gid, _)| **gid); // deterministic files
            for (gid, positions) in entries {
                buf.put_u32_le(*gid);
                buf.put_u32_le(positions.len() as u32);
                for &p in positions {
                    put_center_pos(&mut buf, p);
                }
            }
        }
        // stats — shape counters only. The stage timings are transient
        // build diagnostics; writing them would make the serialized bytes
        // differ between otherwise identical builds, breaking the
        // "equal indexes serialize to equal bytes" guarantee the parallel
        // build-equivalence tests rely on. The two slots stay in the format
        // as zeros for compatibility.
        buf.put_u64_le(self.stats.mined as u64);
        buf.put_u64_le(self.stats.center_entries as u64);
        buf.put_u64_le(self.stats.center_positions as u64);
        buf.put_u64_le(0); // was t_mine_ms
        buf.put_u64_le(0); // was t_centers_ms
        buf.put_u8(self.stats.truncated as u8);
        // maintenance epoch (v2): carried across save/load so epoch-keyed
        // caches never see the version counter move backwards.
        buf.put_u64_le(self.maintenance_epoch);
        // neighborhood signatures (v3), one vector per db slot in gid
        // order. The per-graph count always equals the graph's vertex
        // count (the sigs-are-a-pure-function invariant) and is validated
        // against it on load.
        for sigs in &self.sigs {
            buf.put_u32_le(sigs.len() as u32);
            for s in sigs {
                buf.put_u32_le(s.label);
                buf.put_u32_le(s.degree);
                buf.put_u64_le(s.mask);
            }
        }
        w.write_all(&buf)
    }

    /// Deserialize an index previously written by [`Self::save`].
    pub fn load<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        let mut buf: &[u8] = &data;
        if buf.remaining() < 4 {
            return Err(bad("bad magic"));
        }
        match &buf[..4] {
            m if m == MAGIC => {}
            m if m == MAGIC_V1 => {
                return Err(bad(
                    "version-1 file (no maintenance epoch); rebuild the index file",
                ));
            }
            m if m == MAGIC_V2 => {
                return Err(bad(
                    "version-2 file (no signature section); rebuild the index file",
                ));
            }
            _ => return Err(bad("bad magic")),
        }
        buf.advance(4);
        if buf.remaining() < 4 + 8 + 4 + 8 + 9 + 16 {
            return Err(bad("truncated params"));
        }
        let sigma = SigmaFn {
            alpha: buf.get_u32_le() as usize,
            beta: buf.get_f64_le(),
            eta: buf.get_u32_le() as usize,
        };
        let gamma = buf.get_f64_le();
        let delta = match (buf.get_u8(), buf.get_u64_le()) {
            (0, n) => Delta::Fixed(n as usize),
            (1, _) => Delta::QuerySize,
            _ => return Err(bad("unknown delta tag")),
        };
        let limits = MiningLimits {
            max_patterns: buf.get_u64_le() as usize,
            max_candidates_per_level: buf.get_u64_le() as usize,
        };
        let params = TreePiParams {
            sigma,
            gamma,
            delta,
            limits,
        };
        if buf.remaining() < 4 {
            return Err(bad("truncated db count"));
        }
        let n_db = buf.get_u32_le() as usize;
        let mut db = Vec::with_capacity(n_db);
        for _ in 0..n_db {
            db.push(get_graph(&mut buf)?);
        }
        if buf.remaining() < n_db {
            return Err(bad("truncated active bitmap"));
        }
        let active: Vec<bool> = (0..n_db).map(|_| buf.get_u8() != 0).collect();

        if buf.remaining() < 4 {
            return Err(bad("truncated feature count"));
        }
        let n_features = buf.get_u32_le() as usize;
        let mut features = Vec::with_capacity(n_features);
        let mut trie = CanonTrie::new();
        for i in 0..n_features {
            let tg = get_graph(&mut buf)?;
            let tree = Tree::from_graph(tg).map_err(|_| bad("feature is not a tree"))?;
            let canon = CanonString(get_u32s(&mut buf)?);
            if tree_core::canonical_string(&tree) != canon {
                return Err(bad("feature canonical string mismatch"));
            }
            let support = get_u32s(&mut buf)?;
            if support.iter().any(|&gid| gid as usize >= n_db) {
                return Err(bad("support references unknown graph"));
            }
            trie.insert(&canon, FeatureId(i as u32));
            features.push(Feature {
                center: tree_core::center(&tree),
                tree,
                canon,
                support,
            });
        }
        let mut centers = Vec::with_capacity(n_features);
        for _ in 0..n_features {
            if buf.remaining() < 4 {
                return Err(bad("truncated center table"));
            }
            let n_entries = buf.get_u32_le() as usize;
            let mut per_graph = FxHashMap::default();
            for _ in 0..n_entries {
                if buf.remaining() < 8 {
                    return Err(bad("truncated center entry"));
                }
                let gid = buf.get_u32_le();
                let n_pos = buf.get_u32_le() as usize;
                let mut positions = Vec::with_capacity(n_pos);
                for _ in 0..n_pos {
                    positions.push(get_center_pos(&mut buf)?);
                }
                per_graph.insert(gid, positions);
            }
            centers.push(per_graph);
        }
        if buf.remaining() < 5 * 8 + 1 {
            return Err(bad("truncated stats"));
        }
        let stats = BuildStats {
            mined: buf.get_u64_le() as usize,
            features: n_features,
            center_entries: buf.get_u64_le() as usize,
            center_positions: buf.get_u64_le() as usize,
            t_mine_ms: buf.get_u64_le() as u128,
            t_centers_ms: buf.get_u64_le() as u128,
            truncated: buf.get_u8() != 0,
        };
        if buf.remaining() < 8 {
            return Err(bad("truncated maintenance epoch"));
        }
        let maintenance_epoch = buf.get_u64_le();
        let mut sigs: Vec<Vec<VertexSig>> = Vec::with_capacity(n_db);
        for g in &db {
            if buf.remaining() < 4 {
                return Err(bad("truncated signature header"));
            }
            let n = buf.get_u32_le() as usize;
            if n != g.vertex_count() {
                return Err(bad("signature count does not match graph"));
            }
            if buf.remaining() < n * 16 {
                return Err(bad("truncated signatures"));
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(VertexSig {
                    label: buf.get_u32_le(),
                    degree: buf.get_u32_le(),
                    mask: buf.get_u64_le(),
                });
            }
            sigs.push(v);
        }
        if buf.has_remaining() {
            return Err(bad("trailing bytes"));
        }
        Ok(TreePiIndex {
            db,
            active,
            features,
            trie,
            centers,
            sigs,
            params,
            stats,
            maintenance_epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_index() -> TreePiIndex {
        let db = vec![
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        ];
        TreePiIndex::build(db, TreePiParams::quick())
    }

    #[test]
    fn round_trip_preserves_everything() {
        let idx = sample_index();
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        let loaded = TreePiIndex::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.db(), idx.db());
        assert_eq!(loaded.feature_count(), idx.feature_count());
        for gid in 0..idx.db().len() as u32 {
            assert_eq!(loaded.vertex_sigs(gid), idx.vertex_sigs(gid));
        }
        assert!(loaded.sigs_consistent());
        for (a, b) in idx.features().iter().zip(loaded.features()) {
            assert_eq!(a.canon, b.canon);
            assert_eq!(a.support, b.support);
            assert_eq!(a.center, b.center);
        }
        // queries behave identically
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(
            idx.query(&q, &mut r1).matches,
            loaded.query(&q, &mut r2).matches
        );
    }

    #[test]
    fn round_trip_after_maintenance() {
        let mut idx = sample_index();
        idx.insert(graph_from(&[5, 5], &[(0, 1, 9)]));
        idx.remove(0);
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        let loaded = TreePiIndex::load(&mut bytes.as_slice()).unwrap();
        assert!(!loaded.is_active(0));
        assert_eq!(loaded.active_count(), idx.active_count());
        let q = graph_from(&[5, 5], &[(0, 1, 9)]);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert_eq!(loaded.query(&q, &mut rng).matches, vec![3]);
    }

    #[test]
    fn epoch_survives_save_load_insert_round_trip() {
        // Churn, save, reload: the epoch must come back verbatim (an
        // epoch-keyed cache that saw epoch N before the reload must not be
        // able to conflate pre- and post-reload states), and further
        // maintenance must keep counting from there, never from 0.
        let mut idx = sample_index();
        idx.insert(graph_from(&[5, 5], &[(0, 1, 9)]));
        idx.remove(0);
        let epoch = idx.maintenance_epoch();
        assert_eq!(epoch, 2);
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        let mut loaded = TreePiIndex::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.maintenance_epoch(), epoch);
        let gid = loaded.insert(graph_from(&[6, 6], &[(0, 1, 9)]));
        assert_eq!(loaded.maintenance_epoch(), epoch + 1);
        assert!(loaded.remove(gid));
        assert_eq!(loaded.maintenance_epoch(), epoch + 2);
        // And a second round trip carries the advanced epoch onward.
        let mut bytes2 = Vec::new();
        loaded.save(&mut bytes2).unwrap();
        let again = TreePiIndex::load(&mut bytes2.as_slice()).unwrap();
        assert_eq!(again.maintenance_epoch(), epoch + 2);
    }

    #[test]
    fn rejects_signature_count_mismatch() {
        let idx = sample_index();
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        // Corrupt the first signature-vector length (first 4 bytes of the
        // final section).
        let sig_section: usize = idx.db().iter().map(|g| 4 + 16 * g.vertex_count()).sum();
        let at = bytes.len() - sig_section;
        bytes[at] ^= 0x01;
        let err = match TreePiIndex::load(&mut bytes.as_slice()) {
            Ok(_) => panic!("corrupt signature section must not load"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("signature count"), "{err}");
    }

    #[test]
    fn rejects_version_1_files() {
        let idx = sample_index();
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        bytes[..4].copy_from_slice(b"TPI1");
        let err = match TreePiIndex::load(&mut bytes.as_slice()) {
            Err(e) => e,
            Ok(_) => panic!("v1 accepted"),
        };
        assert!(err.to_string().contains("version-1"), "{err}");
    }

    #[test]
    fn rejects_version_2_files() {
        // The shape a v2 writer produced: a v3 file minus its final
        // (signature) section, under the old magic.
        let idx = sample_index();
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        let sig_section: usize = idx.db().iter().map(|g| 4 + 16 * g.vertex_count()).sum();
        bytes.truncate(bytes.len() - sig_section);
        bytes[..4].copy_from_slice(b"TPI2");
        let err = match TreePiIndex::load(&mut bytes.as_slice()) {
            Err(e) => e,
            Ok(_) => panic!("v2 accepted"),
        };
        assert!(err.to_string().contains("version-2"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = match TreePiIndex::load(&mut &b"NOPE"[..]) {
            Err(e) => e,
            Ok(_) => panic!("bad magic accepted"),
        };
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let idx = sample_index();
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        // chopping at any prefix must error, never panic or yield Ok
        for cut in (0..bytes.len()).step_by(7) {
            let r = TreePiIndex::load(&mut &bytes[..cut]);
            assert!(r.is_err(), "accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn rejects_corrupted_canon() {
        let idx = sample_index();
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        // flip a byte somewhere in the middle; accept either an error or —
        // if the flip landed in padding-free numeric data that stays
        // structurally consistent — detection via the canon re-check
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let _ = TreePiIndex::load(&mut bytes.as_slice());
        // must not panic (result may be Ok only if the flip hit stats)
    }
}
