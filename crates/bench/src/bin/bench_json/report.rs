//! Shared plumbing for the per-PR report modules: structural scanning of
//! our own previous JSON output (regression baselines are carried forward
//! from the files on disk) and the write-and-announce step every section
//! ends with.

/// Extracts the JSON object following `key` (e.g. `"before":`) by brace
/// matching — the file is our own output, so a structural scan is
/// sufficient.
pub fn extract_object(text: &str, key: &str) -> Option<String> {
    let start = text.find(key)? + key.len();
    let rest = text[start..].trim_start();
    if !rest.starts_with('{') {
        return None;
    }
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Reads a numeric field out of a flat JSON object fragment.
pub fn field_f64(obj: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let start = obj.find(&key)? + key.len();
    let rest = obj[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Writes one report document and announces the path on stderr — the
/// single exit point every `--*-into` flag funnels through.
pub fn write(path: &str, doc: String) {
    std::fs::write(path, doc).expect("write report");
    eprintln!("wrote {path}");
}

/// The `"machine"` label every report carries, read from the runtime so a
/// ledger row names the CPU count it was measured with (e.g. `"2-CPU
/// linux host"`).
pub fn machine_label() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!("{cpus}-CPU {} host", std::env::consts::OS)
}
