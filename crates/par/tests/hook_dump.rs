//! A worker panic under the process panic hook: the dump the hook writes on
//! the worker thread names the worker and the job that panicked. Alone in
//! its own test binary, because the hook stays installed for the rest of the
//! process and turns every later worker panic into a `panic` dump.

use diam_obs::json;
use diam_par::{run, Parallelism};

#[test]
fn the_hook_dump_of_a_worker_panic_names_the_job() {
    let dir = std::env::temp_dir().join(format!("diam-par-hook-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    diam_obs::crash::set_crash_dir(Some(dir.clone()));
    diam_obs::crash::install_panic_hook();
    let result = std::panic::catch_unwind(|| {
        run(Parallelism::Threads(2), (0..6).collect(), |i, v: u64| {
            if i == 3 {
                panic!("job 3 exploded");
            }
            v
        })
    });
    assert!(result.is_err(), "the panic is re-raised");

    let dumps: Vec<String> = std::fs::read_dir(&dir)
        .expect("the hook wrote a dump")
        .map(|e| std::fs::read_to_string(e.unwrap().path()).unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(dumps.len(), 1, "one dump per panic: {dumps:?}");
    let dump = json::parse(dumps[0].trim()).expect("dump is valid JSON");
    let field = |key: &str| dump.get(key).and_then(json::JsonValue::as_u64);
    assert_eq!(
        dump.get("reason").and_then(json::JsonValue::as_str),
        Some("panic")
    );
    assert!((1..=2).contains(&field("worker").unwrap()), "{dump:?}");
    assert_eq!(field("job"), Some(3), "{dump:?}");
}
