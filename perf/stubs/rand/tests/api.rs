//! Bounds, distinctness and repeatability of the stand-in generator.

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..8).map(|_| rng.gen::<u64>()).collect::<Vec<_>>()
    };
    assert_eq!(draw(1), draw(1));
    assert_ne!(draw(1), draw(2));
}

#[test]
fn ranges_are_respected() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..10_000 {
        assert!((5..9).contains(&rng.gen_range(5..9usize)));
        assert!((-3..=3).contains(&rng.gen_range(-3..=3i32)));
        let f = rng.gen_range(-2.0..2.0f64);
        assert!((-2.0..2.0).contains(&f));
        let u: f64 = rng.gen();
        assert!((0.0..1.0).contains(&u));
        assert_eq!(rng.gen_range(7..=7u64), 7);
    }
    let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
    assert!((2_200..2_800).contains(&hits), "gen_bool(0.25) hit {hits} of 10000");
}

#[test]
fn every_value_of_a_small_range_turns_up() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut seen = [false; 6];
    for _ in 0..1_000 {
        seen[rng.gen_range(0..6usize)] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn shuffle_permutes_and_choose_picks_a_member() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut v: Vec<u32> = (0..100).collect();
    v.shuffle(&mut rng);
    assert_ne!(v, (0..100).collect::<Vec<_>>());
    let mut sorted = v.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    assert!(v.contains(v.choose(&mut rng).unwrap()));
    assert!(Vec::<u32>::new().choose(&mut rng).is_none());
}

#[test]
fn index_sample_is_distinct_at_every_density() {
    let mut rng = StdRng::seed_from_u64(6);
    for (n, k) in [(10, 0), (10, 10), (4236, 150), (4236, 2000), (1, 1)] {
        let mut idx = sample(&mut rng, n, k).into_vec();
        assert_eq!(idx.len(), k);
        assert!(idx.iter().all(|&i| i < n));
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), k, "duplicates sampling {k} of {n}");
    }
}
