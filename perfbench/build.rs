//! Records whether the benchmark was compiled with `target-cpu=native`
//! (the repository's `.cargo/config.toml` sets it), so every result can
//! state the codegen it was measured under.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let native = flags
        .split('\x1f')
        .any(|f| f.ends_with("target-cpu=native"));
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU_NATIVE={native}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
