//! The workspace builds offline: every package in the resolved graph is a
//! workspace member. Cargo writes a `source` key for any package fetched
//! from a registry or a git repository, so a lockfile without one has no
//! external dependency, direct or transitive.

#[test]
fn every_locked_package_is_a_workspace_member() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock");
    let lock = std::fs::read_to_string(path).expect("the workspace lockfile");
    let packages: Vec<&str> = lock.split("[[package]]").skip(1).collect();
    assert!(
        packages
            .iter()
            .any(|p| p.contains("name = \"sensorcer-core\"")),
        "the lockfile parsed into no workspace package"
    );
    let external: Vec<&str> = packages
        .iter()
        .filter(|p| p.lines().any(|l| l.trim_start().starts_with("source")))
        .filter_map(|p| p.lines().find(|l| l.starts_with("name")))
        .collect();
    assert!(
        external.is_empty(),
        "packages from outside the workspace: {external:?}"
    );
}
