//! Direct timed calls into each layer's public entry points, on the
//! workload's own dataset, each under a span. A layer's time is its span's
//! self time: the span minus what the spans below it (other layers, store
//! calls) cover.

use std::collections::HashMap;
use std::time::Instant;

use bytes::Bytes;
use rottnest::{IndexEntry, IndexKind, Query, Rottnest};
use rottnest_component::{ComponentCache, ComponentFile, Posting};
use rottnest_compress::Codec;
use rottnest_fm::{merge_fm, FmBuilder, FmIndex};
use rottnest_format::{
    ColumnData, DataType, FileWriter, PageCacheSession, PageReader, PageTable, ValueRef,
};
use rottnest_ivfpq::{IvfError, IvfPqBuilder, IvfPqIndex, VecPosting};
use rottnest_lake::Table;
use rottnest_object_store::{MemoryStore, ObjectStore};
use rottnest_serve::QueryService;
use rottnest_trie::{index::merge_tries, TrieBuilder, TrieIndex};

use crate::config::*;
use crate::dataset::{schema, FileData, KINDS};
use crate::engine::service_config;
use crate::oracle::Oracle;
use crate::queries::*;
use crate::stats::{mean, median, Timing};
use crate::trace::{covered_ns, SpanTree, Tracer};

/// Metric name -> value, for the names this module measures.
pub type Layers = HashMap<&'static str, f64>;

struct Probe<'a> {
    store: &'a dyn ObjectStore,
    mem: &'a MemoryStore,
    tracer: &'a Tracer,
}

impl Probe<'_> {
    fn call<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.call(0, layer, name, self.mem.clock(), f)
    }
}

fn entries_of(entries: &[IndexEntry], kind: usize) -> Vec<&IndexEntry> {
    let (index_kind, column) = KINDS[kind];
    entries
        .iter()
        .filter(|e| e.kind.compatible(&index_kind) && e.column == column)
        .collect()
}

fn page_of(entry: &IndexEntry, p: Posting) -> (&str, &PageTable, usize) {
    let cov = &entry.files[p.file as usize];
    (cov.path.as_str(), &cov.page_table, p.page as usize)
}

/// The search pipeline assembled from the layers' public functions, for one
/// query against current index entries: revalidate the plan, open and query
/// each index, fetch and decode the pages, verify in situ. Returns the
/// refine candidates fetched (vector) or pages read (exact).
fn pipeline(
    p: &Probe,
    table: &Table<'_>,
    entries: &[IndexEntry],
    rot: &Rottnest<'_>,
    q: &Q,
    pools: &Pools,
) -> usize {
    let store = table.store();
    let session = PageCacheSession::new();
    let (_, query) = pools.query(q);
    p.call("core", "revalidate", || {
        rot.meta().latest_version().expect("list")
    });
    let mine = entries_of(entries, q.kind());
    match query {
        Query::UuidEq { key, .. } => {
            let mut pages = Vec::new();
            for e in &mine {
                let idx = p.call("trie", "open", || {
                    TrieIndex::open(store, &e.path).expect("open trie")
                });
                let postings = p.call("trie", "lookup", || idx.lookup(key).expect("lookup"));
                pages.extend(postings.into_iter().map(|x| page_of(e, x)));
            }
            verify(
                p,
                store,
                &session,
                &pages,
                DataType::Binary,
                &|v| matches!(v, ValueRef::Binary(b) if b == key),
            )
        }
        Query::Substring { pattern, k } => {
            let mut pages = Vec::new();
            for e in &mine {
                let idx = p.call("fm", "open", || {
                    FmIndex::open(store, &e.path).expect("open fm")
                });
                let hits = p.call("fm", "locate", || {
                    // The staged locate of `Rottnest::search`.
                    let limit = k.saturating_mul(8).max(64);
                    let hits = idx.locate_pages(pattern, limit).expect("locate");
                    let resolved: usize = hits.iter().map(|&(_, n)| n as usize).sum();
                    if resolved >= limit {
                        idx.locate_pages(pattern, usize::MAX).expect("locate")
                    } else {
                        hits
                    }
                });
                pages.extend(hits.into_iter().map(|(x, _)| page_of(e, x)));
            }
            pages.sort_by_key(|&(path, _, page)| (path, page));
            pages.dedup_by_key(|&mut (path, _, page)| (path, page));
            let needle = std::str::from_utf8(pattern).expect("utf8 pattern");
            verify(
                p,
                store,
                &session,
                &pages,
                DataType::Utf8,
                &|v| matches!(v, ValueRef::Utf8(s) if s.contains(needle)),
            )
        }
        Query::VectorNn { query, params } => {
            let mut fetched = 0;
            for e in &mine {
                let idx = p.call("ivfpq", "open", || {
                    IvfPqIndex::open(store, &e.path).expect("open ivf")
                });
                let candidates = std::cell::Cell::new(0);
                let fetch = |ids: &[VecPosting]| -> Result<Vec<Vec<f32>>, IvfError> {
                    candidates.set(ids.len());
                    Ok(fetch_vectors(p, store, &session, e, ids))
                };
                p.call("ivfpq", "search", || {
                    idx.search(query, params, &fetch).expect("search")
                });
                fetched += candidates.get();
            }
            fetched
        }
    }
}

/// Reads `pages` through the cached page reader and applies `predicate`
/// to every decoded row, as the in-situ probe does.
fn verify(
    p: &Probe,
    store: &dyn ObjectStore,
    session: &PageCacheSession,
    pages: &[(&str, &PageTable, usize)],
    data_type: DataType,
    predicate: &dyn Fn(ValueRef<'_>) -> bool,
) -> usize {
    if pages.is_empty() {
        return 0;
    }
    let decoded = p.call("format", "read_pages", || {
        PageReader::cached(store, session)
            .read_pages(pages, data_type)
            .expect("read pages")
    });
    p.call("core", "verify", || {
        let hits: usize = decoded
            .iter()
            .map(|col| {
                (0..col.len())
                    .filter(|&i| predicate(col.get(i).expect("in range")))
                    .count()
            })
            .sum();
        std::hint::black_box(hits)
    });
    pages.len()
}

/// Exact vectors of refine candidates: one batched page read, then rows.
fn fetch_vectors(
    p: &Probe,
    store: &dyn ObjectStore,
    session: &PageCacheSession,
    entry: &IndexEntry,
    ids: &[VecPosting],
) -> Vec<Vec<f32>> {
    let mut pages: Vec<(&str, &PageTable, usize)> = Vec::new();
    let mut slot_of: HashMap<(u32, u32), usize> = HashMap::new();
    for c in ids {
        slot_of
            .entry((c.posting.file, c.posting.page))
            .or_insert_with(|| {
                pages.push(page_of(entry, c.posting));
                pages.len() - 1
            });
    }
    let decoded: Vec<ColumnData> = p.call("format", "read_pages", || {
        PageReader::cached(store, session)
            .read_pages(&pages, DataType::VectorF32 { dim: DIM as u32 })
            .expect("read pages")
    });
    ids.iter()
        .map(
            |c| match decoded[slot_of[&(c.posting.file, c.posting.page)]].get(c.row as usize) {
                Some(ValueRef::VectorF32(v)) => v.to_vec(),
                _ => panic!("refine candidate row {} outside its page", c.row),
            },
        )
        .collect()
}

fn raw_column_bytes(file: &FileData) -> [Vec<u8>; 3] {
    [
        file.keys.concat(),
        file.docs.join("\n").into_bytes(),
        file.vectors
            .iter()
            .flatten()
            .flat_map(|f| f.to_le_bytes())
            .collect(),
    ]
}

/// Queries of each kind the section replays.
const SAMPLE_PER_KIND: usize = 32;
/// Rounds of the sample through the service: enough queries for a p99,
/// and an even number so the overhead comparison takes equal turns.
const SERVICE_ROUNDS: usize = 12;

/// The same mixed sample on every workload: keys of the first file, the
/// first patterns and vectors of the pools.
fn sample(oracle: &Oracle) -> Vec<Q> {
    (0..SAMPLE_PER_KIND)
        .flat_map(|i| {
            [
                Q::Uuid(oracle.files()[0].keys[i].clone()),
                Q::Substr(i),
                Q::Vector(i),
            ]
        })
        .collect()
}

/// Runs the whole section against the dataset on `store`.
pub fn measure(
    store: &dyn ObjectStore,
    mem: &MemoryStore,
    tracer: &Tracer,
    oracle: &Oracle,
    pools: &Pools,
) -> Layers {
    let p = Probe { store, mem, tracer };
    let mut out = Layers::new();
    let table = Table::open(store, TABLE_ROOT, table_config()).expect("open table");
    let snapshot = table.snapshot().expect("snapshot");
    let rot = Rottnest::new(store, INDEX_DIR, rottnest_config());
    let cfg = rottnest_config();
    let entries = rot.meta().scan().expect("scan index metadata");
    let sample = sample(oracle);

    // One round warms every cache the calls below touch (cold_mix leaves
    // them empty); its spans are dropped.
    for q in &sample {
        pipeline(&p, &table, &entries, &rot, q, pools);
    }
    tracer.take();

    // Plan: revalidation LIST plus the log replay a cold client pays.
    for _ in 0..16 {
        p.call("core", "plan", || {
            let meta = rot.meta();
            let version = meta
                .latest_version()
                .expect("list")
                .expect("index committed");
            meta.scan_at(version).expect("replay")
        });
        p.call("lake", "snapshot", || table.snapshot().expect("snapshot"));
    }

    // The pipeline against the program's own search, same queries, warm.
    let mut candidates = Vec::new();
    const SEARCH_SPANS: [&str; 3] = ["search.uuid", "search.substring", "search.vector"];
    for q in &sample {
        let n = p.call("bench", "pipeline", || {
            pipeline(&p, &table, &entries, &rot, q, pools)
        });
        if q.kind() == VECTOR {
            candidates.push(n as f64);
        }
        let (column, query) = pools.query(q);
        p.call("core", SEARCH_SPANS[q.kind()], || {
            rot.search(&table, &snapshot, column, &query)
                .expect("search")
        });
    }
    for e in &entries {
        p.call("component", "open", || {
            ComponentFile::open(store, &e.path).expect("open")
        });
    }

    // Cold: component fetch and uncached page decode.
    for e in &entries {
        ComponentCache::global().clear();
        let file = ComponentFile::open(store, &e.path).expect("open");
        let ids: Vec<usize> = (0..file.len().min(8)).collect();
        p.call("component", "fetch", || {
            file.components(&ids).expect("components")
        });
    }
    for e in &entries {
        let pages: Vec<(&str, &PageTable, usize)> = e
            .files
            .iter()
            .take(4)
            .map(|f| (f.path.as_str(), &f.page_table, 0))
            .collect();
        let data_type = match e.kind {
            IndexKind::Substring => DataType::Utf8,
            IndexKind::Vector { dim } => DataType::VectorF32 { dim },
            _ => DataType::Binary,
        };
        p.call("format", "page_decode", || {
            PageReader::new(store)
                .read_pages(&pages, data_type)
                .expect("read pages")
        });
    }

    // The service on one thread: the sample through `QueryService::query`,
    // and what the service adds to the same warm uuid query.
    let service = QueryService::new(&rot, service_config(1));
    let mut served: [Vec<f64>; 3] = Default::default();
    let mut direct_uuid = Vec::new();
    for round in 0..SERVICE_ROUNDS {
        for q in &sample {
            let (column, query) = pools.query(q);
            let mut direct = || {
                let t = Instant::now();
                std::hint::black_box(
                    rot.search(&table, &snapshot, column, &query)
                        .expect("search"),
                );
                direct_uuid.push(t.elapsed().as_secs_f64() * 1e6);
            };
            // Whichever runs second finds the key's pages in the CPU cache,
            // so the two take turns going first.
            if q.kind() == UUID && round % 2 == 0 {
                direct();
            }
            let t = Instant::now();
            std::hint::black_box(
                service
                    .query(&table, &snapshot, column, &query, "bench")
                    .expect("query"),
            );
            served[q.kind()].push(t.elapsed().as_secs_f64() * 1e6);
            if q.kind() == UUID && round % 2 == 1 {
                direct();
            }
        }
    }
    out.insert(
        "serve.overhead_us",
        median(&served[UUID]) - median(&direct_uuid),
    );
    out.insert("serve.wall_p50_us.uuid", median(&served[UUID]));
    out.insert("serve.wall_p50_us.substring", median(&served[SUBSTR]));
    out.insert("serve.wall_p50_us.vector", median(&served[VECTOR]));
    out.insert(
        "serve.wall_p99_us",
        Timing::p99_or_supported(&served.concat()),
    );

    // Fold the spans: a layer call's time is its self time.
    let spans = tracer.take();
    let tree = SpanTree::new(&spans);
    let med = |layer: &str, name: &str| {
        let v: Vec<f64> = tree
            .named(layer, name)
            .map(|s| tree.self_ns(s) as f64 / 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    out.insert("core.plan_us", med("core", "plan"));
    out.insert("lake.snapshot_us", med("lake", "snapshot"));
    out.insert("trie.open_us", med("trie", "open"));
    out.insert("trie.lookup_us", med("trie", "lookup"));
    out.insert("fm.open_us", med("fm", "open"));
    out.insert("fm.locate_us", med("fm", "locate"));
    out.insert("ivfpq.open_us", med("ivfpq", "open"));
    out.insert("ivfpq.search_us", med("ivfpq", "search"));
    out.insert("format.read_pages_us", med("format", "read_pages"));
    out.insert("format.page_decode_us", med("format", "page_decode"));
    out.insert("component.open_us", med("component", "open"));
    out.insert("component.fetch_us", med("component", "fetch"));
    out.insert("ivfpq.candidates_per_op", mean(&candidates));
    for (name, span) in [
        "core.sim_ms.uuid",
        "core.sim_ms.substring",
        "core.sim_ms.vector",
    ]
    .into_iter()
    .zip(SEARCH_SPANS)
    {
        let sims: Vec<f64> = tree
            .named("core", span)
            .map(|s| s.sim_us as f64 / 1e3)
            .collect();
        out.insert(name, mean(&sims));
    }
    // What the program's search spends outside the store, against what the
    // pipeline built from the layers' public functions spends there.
    let minus_store = |layer: &str, name: &str| -> f64 {
        tree.named(layer, name)
            .map(|root| {
                let mut cover: Vec<(u64, u64)> = tree
                    .store_spans_under(root)
                    .iter()
                    .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
                    .collect();
                (root.dur_ns() - covered_ns(&mut cover)) as f64
            })
            .sum()
    };
    let searched: f64 = SEARCH_SPANS
        .iter()
        .map(|name| minus_store("core", name))
        .sum();
    let explained = minus_store("bench", "pipeline");
    out.insert(
        "core.unattributed_pct",
        100.0 * (searched - explained) / searched,
    );

    builders(&p, &cfg, &oracle.files()[0], &mut out);
    out
}

/// Write-side kernels over one file's rows: codecs, file writer, and the
/// three index builders and merges.
fn builders(p: &Probe, cfg: &rottnest::RottnestConfig, file: &FileData, out: &mut Layers) {
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mb = |bytes: usize, s: f64| bytes as f64 / 1e6 / s;

    // Codec over the dataset's column payloads.
    let raw = raw_column_bytes(file);
    let raw_len: usize = raw.iter().map(Vec::len).sum();
    let mut packed: Vec<Vec<u8>> = Vec::new();
    let s = timed(&mut || packed = raw.iter().map(|r| Codec::Lz.compress(r)).collect());
    out.insert("compress.compress_mb_s", mb(raw_len, s));
    let packed_len: usize = packed.iter().map(Vec::len).sum();
    out.insert("compress.ratio", raw_len as f64 / packed_len as f64);
    let s = timed(&mut || {
        for (c, r) in packed.iter().zip(&raw) {
            std::hint::black_box(Codec::Lz.decompress(c, r.len()).expect("round trip"));
        }
    });
    out.insert("compress.decompress_mb_s", mb(raw_len, s));

    let batch = file.batch();
    let s = timed(&mut || {
        let mut w = FileWriter::with_options(schema(), table_config().writer);
        w.write_batch(&batch).expect("write");
        std::hint::black_box(w.finish().expect("finish"));
    });
    out.insert("format.write_mb_s", mb(file.raw_bytes() as usize, s));

    let rows = file.rows();
    let posting = |row: usize| Posting::new(0, (row / 64) as u32);
    let half = rows / 2;
    let store = p.store;

    // Trie: build all keys; merge two halves.
    let build_trie = |range: std::ops::Range<usize>| -> Bytes {
        let mut b = TrieBuilder::new(KEY_LEN).expect("key length");
        for row in range {
            b.add(&file.keys[row], posting(row)).expect("add");
        }
        b.finish()
    };
    let s = timed(&mut || {
        std::hint::black_box(build_trie(0..rows));
    });
    out.insert("trie.build_keys_per_s", rows as f64 / s);
    store
        .put("scratch/a.trie", build_trie(0..half))
        .expect("put");
    store
        .put("scratch/b.trie", build_trie(half..rows))
        .expect("put");
    let (a, b) = (
        TrieIndex::open(store, "scratch/a.trie").expect("open"),
        TrieIndex::open(store, "scratch/b.trie").expect("open"),
    );
    let s = timed(&mut || {
        merge_tries(store, &[(&a, 0), (&b, 1)], "scratch/ab.trie").expect("merge");
    });
    out.insert("trie.merge_keys_per_s", rows as f64 / s);

    // FM: build over all docs; merge two halves.
    let build_fm = |range: std::ops::Range<usize>| -> (Bytes, usize) {
        let mut b = FmBuilder::with_options(cfg.fm.clone()).with_parallelism(cfg.build_parallelism);
        for row in range {
            b.add_document(posting(row), file.docs[row].as_bytes());
        }
        let text = b.text_len();
        (b.finish(), text)
    };
    let mut built = (Bytes::new(), 0);
    let s = timed(&mut || built = build_fm(0..rows));
    out.insert("fm.build_mb_s", mb(built.1, s));
    out.insert(
        "fm.index_bytes_per_text_byte",
        built.0.len() as f64 / built.1 as f64,
    );
    store.put("scratch/a.fm", build_fm(0..half).0).expect("put");
    store
        .put("scratch/b.fm", build_fm(half..rows).0)
        .expect("put");
    let (a, b) = (
        FmIndex::open(store, "scratch/a.fm").expect("open"),
        FmIndex::open(store, "scratch/b.fm").expect("open"),
    );
    let s = timed(&mut || {
        merge_fm(store, &[(&a, 0), (&b, 1)], "scratch/ab.fm", &cfg.fm_merge).expect("merge");
    });
    out.insert("fm.merge_mb_s", mb(built.1, s));

    // IVF-PQ: train and encode all vectors.
    let s = timed(&mut || {
        let mut b = IvfPqBuilder::new(DIM, cfg.ivf.clone())
            .expect("params")
            .with_parallelism(cfg.build_parallelism);
        for (row, v) in file.vectors.iter().enumerate() {
            b.add(VecPosting::new(0, (row / 64) as u32, (row % 64) as u32), v)
                .expect("add");
        }
        std::hint::black_box(b.finish().expect("finish"));
    });
    out.insert("ivfpq.build_vecs_per_s", rows as f64 / s);

    // Compaction and vacuum on a scratch table of two small files indexed
    // one by one, so each kind has two index files to merge. Workloads
    // that compact for themselves (ingest, churn) report their own instead.
    let clock = p.mem.clock().expect("metered store");
    let table = Table::create(
        store,
        format!("scratch/lake-{}", clock.now_micros()),
        &schema(),
        table_config(),
    )
    .expect("create scratch table");
    let rot = Rottnest::new(
        store,
        format!("scratch/idx-{}", clock.now_micros()),
        cfg.clone(),
    );
    for range in [0..SCRATCH_ROWS, SCRATCH_ROWS..2 * SCRATCH_ROWS] {
        let part = FileData {
            keys: file.keys[range.clone()].to_vec(),
            docs: file.docs[range.clone()].to_vec(),
            vectors: file.vectors[range].to_vec(),
        };
        table.append(&part.batch()).expect("append");
        for (kind, column) in KINDS {
            rot.index(&table, kind, column).expect("index");
        }
    }
    let compact_us: Vec<f64> = KINDS
        .iter()
        .map(|&(kind, column)| {
            timed(&mut || {
                let merged = rot.compact(kind, column).expect("compact");
                assert_eq!(merged.len(), 1, "two index files merge into one");
            }) * 1e6
        })
        .collect();
    out.insert("core.compact_us", median(&compact_us));
    clock.advance_ms(cfg.index_timeout_ms + 1);
    let s = timed(&mut || {
        rot.vacuum(&table).expect("vacuum");
    });
    out.insert("core.vacuum_us", s * 1e6);
}

/// Rows per file of the scratch table compaction is timed on.
const SCRATCH_ROWS: usize = 200;
