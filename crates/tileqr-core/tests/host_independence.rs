//! The paper crate reads no host state: every tree, DAG, simulation and
//! plan choice is a pure function of its arguments, so its answers do not
//! change with the machine, the process environment or a CPU mask. The
//! runtime decides how a plan runs (and passes the host's core count to
//! `sim::choose_plan` for its default config).
//!
//! This test reads the library sources (`src/**/*.rs`, not the `src/bin`
//! tools, which parse their command line) and fails if one names an API
//! that reads the host or holds process-global state.

use std::fs;
use std::path::{Path, PathBuf};

const FORBIDDEN: [&str; 4] = [
    "available_parallelism",
    "OnceLock",
    "std::env",
    "std::thread",
];

fn library_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "bin") {
                library_sources(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn library_sources_read_no_host_state() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    library_sources(&src, &mut files);
    assert!(
        files.iter().any(|f| f.ends_with("sim.rs")),
        "the walk must reach the simulator"
    );
    let mut found = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source file");
        for (line, content) in text.lines().enumerate() {
            for name in FORBIDDEN.iter().filter(|&&name| content.contains(name)) {
                found.push(format!("{}:{}: {name}", file.display(), line + 1));
            }
        }
    }
    assert!(
        found.is_empty(),
        "host state read in tileqr-core: {found:#?}"
    );
}
