//! Everything a run sends is made from `--seed` here: the trips, the
//! order they are cycled in, and the open-loop arrival schedule. The same
//! seed gives byte-identical inputs; the program receives only these.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::adapter::{City, Trip};
use crate::spec::{Shape, Workload, CORPUS_TRIPS};

/// One corpus entry: a trip and the shard it belongs to.
pub struct Item {
    pub city: usize,
    pub trip: Trip,
}

/// Independent sub-seeds for the parts of a run, so changing how many
/// trips are drawn cannot shift the arrival schedule.
fn sub_seed(seed: u64, part: u64) -> u64 {
    // splitmix64 finaliser over (seed, part).
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(part.wrapping_mul(0xD1B5_4A32_D192_ED03));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `(target_len, downsample)` for each trip of one city. Requests
/// alternate cities, so city `c` of `n` owns trips `c, c+n, …`.
fn plan(w: &Workload, seed: u64, city: usize) -> Vec<(usize, usize)> {
    let n_cities = w.shards.len();
    let (lens, rates) = (w.target_lens, w.downsamples);
    let mine = (0..CORPUS_TRIPS).filter(|i| i % n_cities == city);
    match w.shape {
        // Ragged batches: every (length, rate) pair equally often, so the
        // mix of work does not change with the seed; which trip gets
        // which pair does.
        Shape::BulkWindow { .. } => {
            let mut plan: Vec<(usize, usize)> = mine
                .map(|i| (lens[i % lens.len()], rates[(i / lens.len()) % rates.len()]))
                .collect();
            plan.shuffle(&mut StdRng::seed_from_u64(sub_seed(
                seed,
                100 + city as u64,
            )));
            plan
        }
        // Alternate the paper's two input rates.
        _ => mine
            .map(|i| (lens[i % lens.len()], rates[(i / n_cities) % rates.len()]))
            .collect(),
    }
}

/// The workload's corpus: `CORPUS_TRIPS` distinct trips, interleaved
/// across its cities.
pub fn build(w: &Workload, seed: u64, cities: &[City]) -> Vec<Item> {
    let mut per_city: Vec<std::vec::IntoIter<Trip>> = cities
        .iter()
        .enumerate()
        .map(|(c, city)| {
            city.simulate(sub_seed(seed, c as u64), &plan(w, seed, c))
                .into_iter()
        })
        .collect();
    (0..CORPUS_TRIPS)
        .map(|i| {
            let city = i % cities.len();
            Item {
                city,
                trip: per_city[city].next().expect("plan covers the corpus"),
            }
        })
        .collect()
}

/// The order trips are sent in: seeded permutations of the corpus, laid
/// end to end. Cities keep alternating because every permutation is
/// applied within a city's own trips.
pub fn order(seed: u64, n_cities: usize, count: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 200));
    let mut out = Vec::with_capacity(count + CORPUS_TRIPS);
    while out.len() < count {
        let mut lanes: Vec<Vec<usize>> = (0..n_cities)
            .map(|c| {
                let mut lane: Vec<usize> =
                    (0..CORPUS_TRIPS).filter(|i| i % n_cities == c).collect();
                lane.shuffle(&mut rng);
                lane
            })
            .collect();
        for i in 0..CORPUS_TRIPS {
            let lane = &mut lanes[i % n_cities];
            if let Some(item) = lane.pop() {
                out.push(item);
            }
        }
    }
    out.truncate(count);
    out
}

/// One open-loop source's due times, in seconds from the window epoch:
/// a Poisson process of `rate_rps`, conditioned on its count so every
/// span of `span_s` seconds holds exactly `round(rate·span)` arrivals
/// (arrival *times* stay Poisson; the *count* no longer adds run-to-run
/// noise to throughput).
pub fn poisson_schedule(seed: u64, source: usize, rate_rps: f64, spans: &[(f64, f64)]) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 300 + source as u64));
    let mut due = Vec::new();
    for &(start, span_s) in spans {
        let n = (rate_rps * span_s).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| start + rng.gen_range(0.0..span_s)).collect();
        times.sort_by(f64::total_cmp);
        due.extend(times);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::tests::test_city;
    use crate::spec::WORKLOADS;

    /// Same seed ⇒ byte-identical corpus; different seed ⇒ different.
    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let cities = [test_city("corpus")];
        // The bulk workload draws lengths and input rates as well as trips.
        let w = &WORKLOADS[3];
        let bodies = |seed: u64| -> Vec<String> {
            build(w, seed, &cities)
                .into_iter()
                .flat_map(|i| [i.trip.body_v1, i.trip.body_stream])
                .collect()
        };
        let a = bodies(3);
        assert_eq!(a.len(), 2 * CORPUS_TRIPS);
        assert_eq!(a, bodies(3));
        assert_ne!(a, bodies(4));
        let lens: std::collections::BTreeSet<usize> = build(w, 3, &cities)
            .iter()
            .map(|i| i.trip.target_len)
            .collect();
        assert_eq!(lens.into_iter().collect::<Vec<_>>(), [33, 65, 129]);
    }

    #[test]
    fn order_is_seeded_and_keeps_cities_alternating() {
        let a = order(5, 2, 700);
        assert_eq!(a, order(5, 2, 700), "same seed, same order");
        assert_ne!(a, order(6, 2, 700), "different seed, different order");
        assert_eq!(a.len(), 700);
        assert!(a.iter().enumerate().all(|(k, &i)| i % 2 == k % 2));
        // Every trip is used before any repeats.
        let mut first: Vec<usize> = a[..CORPUS_TRIPS].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..CORPUS_TRIPS).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_is_seeded_sorted_and_count_conditioned() {
        let spans = [(0.0, 2.0), (2.0, 5.0), (7.0, 5.0)];
        let a = poisson_schedule(9, 0, 8.0, &spans);
        assert_eq!(a, poisson_schedule(9, 0, 8.0, &spans));
        assert_ne!(a, poisson_schedule(10, 0, 8.0, &spans));
        assert_ne!(
            a,
            poisson_schedule(9, 1, 8.0, &spans),
            "sources are independent"
        );
        assert_eq!(a.len(), 16 + 40 + 40);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.iter().filter(|&&t| (2.0..7.0).contains(&t)).count(), 40);
    }
}
