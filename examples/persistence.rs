//! Index persistence: preprocess once, save, reload instantly — the
//! workflow of a chemical registration system, where the database is
//! curated centrally and search nodes load a prebuilt index.
//!
//! ```sh
//! cargo run --release --example persistence
//! ```

use datagen::{extract_queries, generate_chem, ChemParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use treepi::{TreePiIndex, TreePiParams};

fn main() -> std::io::Result<()> {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let db = generate_chem(&ChemParams::sized(150), &mut rng);

    let t = Instant::now();
    let index = TreePiIndex::build(db.clone(), TreePiParams::default());
    println!(
        "built index over {} molecules in {:.2?} ({} features)",
        index.active_count(),
        t.elapsed(),
        index.feature_count()
    );

    let path = std::env::temp_dir().join("treepi-example.idx");
    let t = Instant::now();
    let mut file = std::fs::File::create(&path)?;
    index.save(&mut file)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "saved to {} ({} KiB on disk, {} KiB on the heap) in {:.2?}",
        path.display(),
        bytes / 1024,
        index.heap_bytes() / 1024,
        t.elapsed()
    );

    let t = Instant::now();
    let loaded = TreePiIndex::load(&mut std::fs::File::open(&path)?)?;
    println!("reloaded in {:.2?}", t.elapsed());

    // The reloaded index answers identically.
    for q in extract_queries(&db, 6, 10, &mut rng) {
        assert_eq!(index.query(&q).matches, loaded.query(&q).matches);
    }
    println!("10 queries: identical answers from the reloaded index");

    // A damaged copy is refused by the loader, not handed to queries.
    let mut damaged = std::fs::read(&path)?;
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x01;
    let err = TreePiIndex::load(&mut damaged.as_slice()).err();
    println!(
        "one flipped byte: {}",
        err.map_or("loaded?!".into(), |e| e.to_string())
    );
    std::fs::remove_file(&path)?;
    Ok(())
}
