//! Two source conventions that no rustc or clippy lint expresses, checked
//! on the text of the library files (DESIGN.md "Lints"). Each check reads
//! a file up to its test module and skips comment lines.

use std::path::Path;

/// The `(line number, text)` of each non-comment line of `src` above its
/// first `#[cfg(test)]` module. A `#[cfg(test)]` on any other item (a
/// test hook method) does not end the library code.
fn library_lines(src: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = src.lines().collect();
    let end = (0..lines.len())
        .find(|&k| lines[k].trim() == "#[cfg(test)]" && gates_a_mod(&lines[k + 1..]))
        .unwrap_or(lines.len());
    let numbered = lines[..end].iter().enumerate().map(|(i, &l)| (i + 1, l));
    numbered
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .collect()
}

/// True when the item `rest` opens with, past any further attributes
/// (one line or several), is a module.
fn gates_a_mod(rest: &[&str]) -> bool {
    let mut depth = 0i32;
    for line in rest.iter().map(|l| l.trim()) {
        if depth == 0 && !line.starts_with("#[") {
            let item = line.strip_prefix("pub ").unwrap_or(line);
            let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
            return item.starts_with("mod ");
        }
        depth += line.matches('[').count() as i32 - line.matches(']').count() as i32;
    }
    false
}

/// True when a `.fold(` argument list opens with a float seed: a float
/// literal, optionally negated, or an `f32::`/`f64::` constant.
fn float_seed(args: &str) -> bool {
    let seed = args.trim_start().trim_start_matches('-');
    let len = seed.find(|c: char| !c.is_alphanumeric() && !matches!(c, '.' | '_'));
    let lit = &seed[..len.unwrap_or(seed.len())];
    let float_lit = lit.contains('.') || lit.ends_with("f32") || lit.ends_with("f64");
    let literal = lit.starts_with(|c: char| c.is_ascii_digit()) && float_lit;
    literal || seed.starts_with("f32::") || seed.starts_with("f64::")
}

/// Lines holding an iterator float reduction (`.sum::<f32>()`,
/// `.product::<f64>()`, a float-seeded `.fold(`, whose seed may sit on
/// the next line). Accumulation order is part of the determinism
/// contract, so it is written out once, in the reduction owners.
fn float_reductions(src: &str) -> Vec<usize> {
    let lines = library_lines(src);
    let ops = [
        "sum::<f32>()",
        "sum::<f64>()",
        "product::<f32>()",
        "product::<f64>()",
    ];
    let hit = |k: usize, line: &str| {
        let next = lines.get(k + 1).map_or("", |l| l.1);
        let seed = |(at, _)| match &line[at + ".fold(".len()..] {
            rest if rest.trim().is_empty() => float_seed(next),
            rest => float_seed(rest),
        };
        ops.iter().any(|op| line.contains(&format!(".{op}")))
            || line.match_indices(".fold(").any(seed)
    };
    let hits = lines.iter().enumerate().filter(|&(k, l)| hit(k, l.1));
    hits.map(|(_, l)| l.0).collect()
}

/// True when `src` spawns a thread but never names `JoinHandle`, i.e. its
/// threads are detached rather than joined on shutdown.
fn detached_spawn(src: &str) -> bool {
    let lines = library_lines(src);
    let has = |pat: &str| lines.iter().any(|l| l.1.contains(pat));
    (has("thread::spawn(") || has(".spawn(")) && !has("JoinHandle")
}

/// `(path from the repo root, text)` of every `.rs` file in the `src/`
/// trees of the root package, the crates and the shims.
fn library_files() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    for parent in ["crates", "shims"] {
        for member in std::fs::read_dir(root.join(parent)).unwrap().flatten() {
            dirs.push(member.path().join("src"));
        }
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                files.push((rel, std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    files
}

#[test]
fn float_reductions_stay_in_the_sanctioned_modules() {
    let owners =
        ["backend/", "ops/reduce.rs", "tensor.rs"].map(|o| format!("crates/tensor/src/{o}"));
    let policed = |f: &str| {
        let scope = f.starts_with("crates/tensor/src/") || f.starts_with("crates/nn/src/");
        scope && !owners.iter().any(|o| f.starts_with(o))
    };
    let mut files = library_files();
    files.retain(|(f, _)| policed(f));
    assert!(files.len() > 20, "only {} files scanned", files.len());
    let mut found = Vec::new();
    for (f, src) in &files {
        found.extend(float_reductions(src).iter().map(|n| format!("{f}:{n}")));
    }
    assert!(
        found.is_empty(),
        "float reductions outside {owners:?}: {found:?}"
    );
}

#[test]
fn library_threads_are_joined() {
    let mut files = library_files();
    files.retain(|(f, src)| !f.contains("/bin/") && detached_spawn(src));
    assert!(
        files.is_empty(),
        "detached threads (no JoinHandle) in {files:?}"
    );
}

#[test]
fn scanners_flag_the_planted_forms() {
    let float = "pub fn dot(xs: &[f32], ys: &[f32]) -> f32 {\n\
        xs.iter().zip(ys).map(|(a, b)| a * b).sum::<f32>()\n}\n\
        pub fn running_max(xs: &[f32]) -> f32 {\n\
        xs.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))\n}\n\
        let p = xs.iter().fold(\n-1.5e0,\n|a, &b| a + b) * xs.iter().product::<f64>();\n\
        // A comment naming `.sum::<f32>()` is not code.\n\
        xs.iter().sum::<usize>() + xs.iter().fold(0, f);\n\
        shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))\n\
        #[cfg(test)]\nmod tests { fn t(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() } }\n";
    assert_eq!(float_reductions(float), [2, 5, 7, 9]);
    assert!(float_seed(" 0.0f32, f") && float_seed("2f64, f") && !float_seed("0usize, f"));

    let detached = "pub fn go() { std::thread::Builder::new().spawn(f).unwrap(); }";
    assert!(detached_spawn(detached) && detached_spawn("std::thread::spawn(f);"));
    let joined = "fn go() -> JoinHandle<()> { thread::spawn(f) }";
    let test_only = "fn go() {}\n#[cfg(test)]\n#[allow(\n    lint,\n    reason = \"r\"\n)]\n\
        mod tests { fn t() { thread::spawn(f); } }";
    assert!(!detached_spawn(joined) && !detached_spawn(test_only));
    // A test hook method above library code does not end the scan.
    let after_hook = "impl Q {\n    #[cfg(test)]\n    pub fn len(&self) -> usize { 0 }\n}\n\
        pub fn go() { std::thread::spawn(f); }";
    assert!(detached_spawn(after_hook));
}
