//! Source gate. Rule 1: every `pub` item in `crates/*/src` is named by another file, and every
//! `pub fn` inside an `impl` is called or pathed there (a field or local of the same name is not
//! a caller). Rule 2: every crate-root re-export is used through that root outside the crate.
//! Both scans stop at a file's top-level `#[cfg(test)]`; `shims/*` mirror external APIs and are
//! out of scope. Four greps follow: library crates read no environment, every manifest
//! dependency is named by its package's sources, the generator's arithmetic lives only in
//! `netsim::rng`, and integers leave JSON only through the shim.

use std::fs;

/// Every file under `rel` whose path ends with `suffix`, as (path from the repository root, text).
fn load(rel: &str, suffix: &str, out: &mut Vec<(String, String)>) {
    let dir = fs::read_dir(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR")));
    for entry in dir.into_iter().flatten().flatten() {
        let path = format!("{rel}/{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            load(&path, suffix, out);
        } else if path.ends_with(suffix) {
            out.push((path, fs::read_to_string(entry.path()).expect("readable source")));
        }
    }
}

/// The numbered lines before the file's first top-level `#[cfg(test)]`.
fn live(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
}

/// True if `hay` contains `name` with no identifier character either side.
fn mentions(hay: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    hay.match_indices(name)
        .any(|(i, _)| !hay[..i].ends_with(ident) && !hay[i + name.len()..].starts_with(ident))
}

/// True if `hay` calls or paths to `name`: `.name(`, `.name::<`, or `::name` followed by a
/// non-identifier character other than `:` (a module of that name is not the method), or by `::<`.
fn calls(hay: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    hay.match_indices(name).any(|(i, _)| {
        let (before, after) = (&hay[..i], &hay[i + name.len()..]);
        let turbofish = after.starts_with("::<");
        before.ends_with('.') && (after.starts_with('(') || turbofish)
            || before.ends_with("::") && (turbofish || !after.starts_with(|c| ident(c) || c == ':'))
    })
}

/// True if the `pub fn` on `lines[n]` is a method: the nearest line above it with less
/// indentation (past a `where` clause and its lone `{`) opens an `impl` block.
fn in_impl(lines: &[&str], n: usize) -> bool {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let k = indent(lines[n]);
    lines[..n]
        .iter()
        .rev()
        .filter(|l| !l.trim().is_empty() && indent(l) < k)
        .map(|l| l.trim_start())
        .find(|t| *t != "{" && !t.starts_with("where"))
        .is_some_and(|t| t.starts_with("impl") || t.starts_with("unsafe impl"))
}

/// The text that can name an item: no comments, `mod` lines or `pub use`
/// statements (a multi-line `pub use` runs to its `;`).
fn refs(text: &str) -> String {
    let mut in_use = false;
    let keep = |l: &&str| {
        let t = l.trim_start();
        let skip = in_use || t.starts_with("pub use ");
        in_use = skip && !t.contains(';');
        !skip && !t.starts_with("//") && !t.starts_with("mod ") && !t.starts_with("pub mod ")
    };
    text.lines().filter(keep).collect::<Vec<_>>().join("\n")
}

/// `(kind, name)` of a `pub` item declared on this line.
fn decl(line: &str) -> Option<(&str, &str)> {
    let s = line.trim_start().strip_prefix("pub ")?;
    let mut words = s.split(|c: char| !c.is_alphanumeric() && c != '_').filter(|w| !w.is_empty());
    let (mut kind, mut name) = (words.next()?, words.next()?);
    if name == "fn" {
        (kind, name) = ("fn", words.next()?);
    }
    let kinds = ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];
    kinds.contains(&kind).then_some((kind, name))
}

/// The crate a path belongs to, if it is library source under `crates/`.
fn krate(path: &str) -> Option<&str> {
    let (name, tail) = path.strip_prefix("crates/")?.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// True if a `pub` line of the crate, or a line of a multi-line `pub fn` up to
/// its `{` or `;`, names the type: rustc's `private_interfaces` keeps it `pub`.
fn in_signature(files: &[(&str, &str)], own: &str, kind: &str, name: &str) -> bool {
    files.iter().filter(|(p, _)| krate(p) == Some(own)).any(|(_, text)| {
        let mut open = false;
        live(text).any(|(_, l)| {
            let t = l.trim_start();
            let public = t.starts_with("pub ") && !t.starts_with("pub use ");
            let hit = (open || public) && decl(l) != Some((kind, name)) && mentions(l, name);
            open = (open || public && t.contains("fn ")) && !t.contains('{') && !t.contains(';');
            hit
        })
    })
}

/// True if some `krate::{…}` group in `text` names `name` at its top level.
fn in_group(text: &str, krate: &str, name: &str) -> bool {
    text.split(&format!("{krate}::{{")).skip(1).any(|group| {
        let (mut depth, mut top) = (0, String::new());
        for c in group.chars() {
            depth += (c == '{') as i32 - (c == '}') as i32;
            match depth {
                -1 => break,
                0 if c != '}' => top.push(c),
                _ => {}
            }
        }
        top.split(',').any(|item| item.trim().split(" as ").next() == Some(name))
    })
}

fn hits<S: AsRef<str>>(files: &[(S, S)]) -> Vec<String> {
    let files: Vec<(&str, &str)> = files.iter().map(|(p, t)| (p.as_ref(), t.as_ref())).collect();
    let named: Vec<(&str, String)> = files.iter().map(|&(p, t)| (p, refs(t))).collect();
    let mut out = Vec::new();
    for &(path, text) in &files {
        let Some(own) = krate(path) else { continue };
        let lines: Vec<&str> = text.lines().collect();
        for (n, line) in live(text) {
            let Some((kind, name)) = decl(line) else { continue };
            let method = kind == "fn" && in_impl(&lines, n);
            let used_by = |t: &str| if method { calls(t, name) } else { mentions(t, name) };
            let used = named.iter().any(|(p, t)| *p != path && used_by(t));
            let typed = matches!(kind, "struct" | "enum" | "type" | "trait");
            if !(used || typed && in_signature(&files, own, kind, name)) {
                out.push(format!("{path}:{}: pub {kind} {name}", n + 1));
            }
        }
        let code = format!("\n{}", live(text).map(|(_, l)| l).collect::<Vec<_>>().join("\n"));
        for (i, _) in code.match_indices("\npub use ").filter(|_| path.ends_with("/src/lib.rs")) {
            let at = code[..=i].matches('\n').count();
            let tree = code[i + 9..].split(';').next().unwrap_or("");
            let leaves = tree.split(['{', '}', ',']).map(|l| l.trim().rsplit([' ', ':']).next());
            for name in leaves.flatten().filter(|n| !matches!(*n, "" | "*" | "self")) {
                let root = format!("{own}::{name}");
                let mut outside = named.iter().filter(|(p, _)| krate(p) != Some(own));
                if !outside.any(|(_, t)| mentions(t, &root) || in_group(t, own, name)) {
                    out.push(format!("{path}:{at}: pub use {root}"));
                }
            }
        }
    }
    out
}

/// `path:line: text` for each line that contains one of `needles`; with `live_only`, a file's
/// lines from its first top-level `#[cfg(test)]` on are not read.
fn grep<S: AsRef<str>>(files: &[(S, S)], live_only: bool, needles: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files.iter().map(|(p, t)| (p.as_ref(), t.as_ref())) {
        let end = if live_only { live(text).count() } else { usize::MAX };
        let lines = text.lines().enumerate().take(end);
        for (n, line) in lines.filter(|(_, l)| needles.iter().any(|x| l.contains(x))) {
            out.push(format!("{path}:{}: {}", n + 1, line.trim()));
        }
    }
    out
}

/// The names a manifest lists under `[section]`: lines that open with a name and ` `, `.` or `=`.
fn deps<'a>(toml: &'a str, section: &str) -> Vec<&'a str> {
    let name = |n: &&str| {
        !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_-".contains(c))
    };
    let mut on = false;
    let mut out = Vec::new();
    for line in toml.lines() {
        on = if line.starts_with('[') { line == format!("[{section}]") } else { on };
        out.extend(line.split_once([' ', '.', '=']).map(|(n, _)| n).filter(|n| on && name(n)));
    }
    out
}

/// Each `[dependencies]` and `[dev-dependencies]` name of a manifest (dashes read as `_`) that
/// no source of its package writes as `name::`: `src`, `tests` and `examples` for the root
/// package; `<crate>/src` for a crate, and `<crate>/tests` too for its dev-dependencies.
fn unused_deps<S: AsRef<str>>(manifests: &[(S, S)], files: &[(S, S)]) -> Vec<String> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for (manifest, toml) in manifests.iter().map(|(m, t)| (m.as_ref(), t.as_ref())) {
        let dir = manifest.strip_suffix("Cargo.toml").unwrap_or(manifest);
        for section in ["dependencies", "dev-dependencies"] {
            let roots = match (dir, section) {
                ("", _) => vec!["src/".to_string(), "tests/".into(), "examples/".into()],
                (_, "dev-dependencies") => vec![format!("{dir}src/"), format!("{dir}tests/")],
                _ => vec![format!("{dir}src/")],
            };
            let own: Vec<&str> = (files.iter())
                .filter(|(p, _)| roots.iter().any(|r| p.as_ref().starts_with(r.as_str())))
                .map(|(_, t)| t.as_ref())
                .collect();
            for dep in deps(toml, section) {
                let path = format!("{}::", dep.replace('-', "_"));
                let names =
                    |t: &&str| t.match_indices(&path).any(|(i, _)| !t[..i].ends_with(ident));
                if !own.iter().any(names) {
                    out.push(format!("{manifest} [{section}]: {dep}"));
                }
            }
        }
    }
    out
}

/// The `.rs` files under `dirs`, as (path from the repository root, text).
fn sources(dirs: &[&str]) -> Vec<(String, String)> {
    let mut files = Vec::new();
    dirs.iter().for_each(|d| load(d, ".rs", &mut files));
    files
}

#[track_caller]
fn assert_none(what: &str, found: &[String]) {
    assert!(found.is_empty(), "{} {what}:\n{}", found.len(), found.join("\n"));
}

#[test]
fn every_public_name_has_a_caller_outside_its_file() {
    let files = sources(&["crates", "src", "tests", "examples", "perfbench/src"]);
    assert_none("unused public names", &hits(&files));
}

/// Library crates read no environment; examples and the two binaries may.
#[test]
fn library_crates_read_no_environment() {
    let found = grep(&sources(&["crates"]), true, &["env::var"]);
    assert_none("environment reads in library code", &found);
}

#[test]
fn every_dependency_edge_is_named_by_its_package() {
    let root = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    let mut manifests = vec![("Cargo.toml".to_string(), root.expect("root manifest"))];
    load("crates", "/Cargo.toml", &mut manifests);
    let files = sources(&["crates", "src", "tests", "examples"]);
    assert_none("dependencies no source names", &unused_deps(&manifests, &files));
}

/// The xoshiro256** and splitmix64 arithmetic lives only in `netsim::rng`. The needles are
/// spelled in pieces so that this file does not match them.
#[test]
fn the_generator_arithmetic_lives_only_in_netsim_rng() {
    let needles = [concat!("rotate_left(4", "5)"), concat!("(z >> 3", "0)")];
    let mut files = sources(&["crates", "shims", "src", "tests", "examples"]);
    files.retain(|(p, _)| p != "crates/netsim/src/rng.rs");
    assert_none("copies of the generator's arithmetic", &grep(&files, false, &needles));
}

/// Integers leave JSON only through the shim's checked `FromJson` impls: no `as_u64` in live
/// library code, and no private decode helper anywhere under `crates/`.
#[test]
fn integers_leave_json_only_through_the_shim() {
    let files = sources(&["crates"]);
    let mut found = grep(&files, true, &["as_u64"]);
    found.extend(grep(&files, false, &["fn get_u64", "fn get_str", "fn narrow"]));
    assert_none("JSON decodes that bypass the shim", &found);
}

#[test]
fn the_rules_flag_what_they_should_and_nothing_else() {
    // A `pub fn` nothing else names, or names only in a comment or a `pub use`.
    let lonely = ("crates/a/src/x.rs", "pub fn lonely() {}");
    let hit = ["crates/a/src/x.rs:1: pub fn lonely"];
    assert_eq!(hits(&[lonely]), hit);
    assert_eq!(hits(&[lonely, ("tests/t.rs", "// lonely\npub use a::x::lonely;")]), hit);
    // A type named only in the tail of another item's multi-line signature.
    let out = ("crates/a/src/x.rs", "pub struct Out;\npub fn make(\n    n: u32,\n) -> Out {\n}");
    assert!(hits(&[out, ("src/main.rs", "a::x::make(1);")]).is_empty());
    // A re-export used only through its module path, then inside a group.
    let root = ("crates/a/src/lib.rs", "pub mod m;\npub use m::Thing;");
    let thing = ("crates/a/src/m.rs", "pub struct Thing;");
    let hit = ["crates/a/src/lib.rs:2: pub use a::Thing"];
    assert_eq!(hits(&[root, thing, ("tests/t.rs", "use a::m::Thing;")]), hit);
    assert!(hits(&[root, thing, ("tests/t.rs", "use a::{\n    m,\n    Thing,\n};")]).is_empty());
    // A method whose name elsewhere is only a field, a local or a module is not called; a
    // method call, a turbofish or a path is.
    let method = ("crates/a/src/x.rs", "pub struct S;\nimpl S {\n    pub fn knob(&self) {}\n}");
    let hit = ["crates/a/src/x.rs:3: pub fn knob"];
    let field = "let c = a::x::S.knob;\nlet knob = Out { knob };\nuse b::knob::Table;";
    assert_eq!(hits(&[method, ("src/main.rs", field)]), hit);
    for call in ["s.knob();", "s.knob::<u8>();", "v.map(a::x::S::knob);"] {
        assert!(hits(&[method, ("src/main.rs", &format!("a::x::S;\n{call}"))]).is_empty());
    }
}

#[test]
fn the_greps_flag_what_they_should_and_nothing_else() {
    // A live-only grep stops at the file's tests.
    let lib = ("crates/a/src/x.rs", "let n = v.as_u64();\n#[cfg(test)]\nlet m = v.as_u64();");
    assert_eq!(grep(&[lib], true, &["as_u64"]), ["crates/a/src/x.rs:1: let n = v.as_u64();"]);
    assert_eq!(grep(&[lib], false, &["as_u64"]).len(), 2);
    // A dependency its package never paths: a root one named only as a suffix, and a crate's
    // [dependencies] edge named only by its tests (which may use its dev-dependencies).
    let root = "[workspace.dependencies]\nx = 1\n[dependencies]\nfoo-bar.workspace = true\nbaz = 1";
    let krate = "[dependencies]\nfoo = 1\n\n[dev-dependencies]\nbaz = 1";
    let manifests = [("Cargo.toml", root), ("crates/a/Cargo.toml", krate)];
    let files = [
        ("examples/e.rs", "use foo_bar::X;"),
        ("src/main.rs", "let x = mybaz::y();"),
        ("crates/a/tests/t.rs", "foo::f();\nbaz::g();"),
    ];
    let hit = ["Cargo.toml [dependencies]: baz", "crates/a/Cargo.toml [dependencies]: foo"];
    assert_eq!(unused_deps(&manifests, &files), hit);
}
