//! Fixed settings. Everything that would otherwise follow the host's core
//! count is pinned, so simulated time and request counts are the same on
//! every machine.

use rottnest::{RottnestConfig, SearchConfig};
use rottnest_format::WriterOptions;
use rottnest_ivfpq::{IvfPqParams, SearchParams};
use rottnest_lake::TableConfig;

/// Lake table root and index directory on every store.
pub const TABLE_ROOT: &str = "lake";
pub const INDEX_DIR: &str = "idx";

pub const UUID_COL: &str = "trace_id";
pub const TEXT_COL: &str = "body";
pub const VEC_COL: &str = "embedding";

pub const KEY_LEN: usize = 16;
pub const DIM: usize = 32;

/// The `logs` dataset every read workload builds in set-up.
pub const LOGS_FILES: usize = 12;
pub const LOGS_ROWS_PER_FILE: usize = 1_500;
pub const VOCAB: usize = 20_000;
pub const WORDS_PER_DOC: usize = 40;

pub const UUID_K: usize = 1;
pub const SUBSTR_K: usize = 10;
pub const VECTOR_PARAMS: SearchParams = SearchParams {
    k: 10,
    nprobe: 8,
    refine: 64,
};

/// 16 KiB pages, writer parallelism pinned.
pub fn table_config() -> TableConfig {
    TableConfig {
        writer: WriterOptions {
            page_raw_bytes: 16 << 10,
            row_group_rows: 1 << 20,
            parallelism: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// `nlist 64, m 8` as in the legacy `harness_config()` (copied, so the
/// legacy harness can change freely); search and build parallelism pinned;
/// hedging off and every cache at its default. Compaction is tiered: only
/// index files under 1 MiB are merged, so `churn` keeps a fragmented index
/// set beside the large base files instead of rewriting them every time.
pub fn rottnest_config() -> RottnestConfig {
    RottnestConfig {
        min_vector_rows: 64,
        compact_below_bytes: 1 << 20,
        ivf: IvfPqParams {
            nlist: 64,
            m: 8,
            train_iters: 5,
            seed: 17,
        },
        search: SearchConfig {
            parallelism: 8,
            ..Default::default()
        },
        build_parallelism: 4,
        ..Default::default()
    }
}
