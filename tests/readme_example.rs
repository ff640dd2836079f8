//! The README's "Writing an accelerator" code must be quoted from
//! `examples/writing_an_accelerator.rs`, which the build compiles, so the
//! walkthrough cannot drift from the API.

/// The ```rust blocks of the README section `heading`.
fn rust_blocks<'a>(readme: &'a str, heading: &str) -> Vec<Vec<&'a str>> {
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .expect("README section exists");
    section
        .split("```rust\n")
        .skip(1)
        .map(|block| block.split("```").next().unwrap_or_default())
        .map(|block| block.lines().map(str::trim).collect())
        .collect()
}

#[test]
fn readme_accelerator_walkthrough_is_quoted_from_the_example() {
    let readme = include_str!("../README.md");
    let example = include_str!("../examples/writing_an_accelerator.rs");
    let example: Vec<&str> = example.lines().map(str::trim).collect();
    let blocks = rust_blocks(readme, "Writing an accelerator");
    assert_eq!(blocks.len(), 2, "the walkthrough has two code blocks");
    for block in blocks {
        assert!(
            example.windows(block.len()).any(|w| w == block.as_slice()),
            "README block is not quoted verbatim from the example:\n{}",
            block.join("\n")
        );
    }
}
