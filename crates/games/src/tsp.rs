//! A rollout-style Travelling Salesman game.
//!
//! The paper's closest prior work on parallel rollouts (Guerriero &
//! Mancini 2005, reference \[15\]) evaluated on TSP and SOP; this module
//! provides the TSP analogue as an NMCS domain: the state is a partial
//! tour, a move visits an unvisited city, and the score is the *negated*
//! tour length in integer micro-units (NMCS maximises).

use nmcs_core::{mix64, CodedGame, Game, Rng, Score};
use std::cell::RefCell;

/// Domain-separation salts of [`TspGame`]'s [`Game::state_hash`]:
/// visited-set keys and the scalar tail mix.
const TSP_HASH_CITY_SALT: u64 = 0x91c4_7e02_d5aa_36b9;
const TSP_HASH_TAIL_SALT: u64 = 0x0b63_f8d1_49e2_7c55;

thread_local! {
    /// Candidate scratch for neighbourhood-pruned move generation —
    /// reused across calls so the playout path stays allocation-free
    /// once the buffer has grown to the instance size.
    static CANDS: RefCell<Vec<(i64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// A Euclidean TSP instance (cities on the unit square, scaled to integer
/// coordinates so all arithmetic is exact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TspInstance {
    /// City coordinates in integer units.
    pub cities: Vec<(i64, i64)>,
}

/// Coordinate scale of [`TspInstance::random`] (unit square → 0..SCALE).
pub const SCALE: i64 = 10_000;

impl TspInstance {
    /// `n` uniformly random cities on the scaled unit square.
    pub fn random(n: usize, seed: u64) -> Self {
        assert!(n >= 2);
        let mut rng = Rng::seeded(seed);
        let cities = (0..n)
            .map(|_| {
                (
                    rng.below(SCALE as usize) as i64,
                    rng.below(SCALE as usize) as i64,
                )
            })
            .collect();
        Self { cities }
    }

    /// Rounded Euclidean distance between cities `a` and `b`.
    pub fn dist(&self, a: usize, b: usize) -> i64 {
        let (ax, ay) = self.cities[a];
        let (bx, by) = self.cities[b];
        let dx = (ax - bx) as f64;
        let dy = (ay - by) as f64;
        (dx.hypot(dy)).round() as i64
    }

    /// Total length of a closed tour visiting `order` (first city implicit
    /// return at the end).
    pub fn tour_length(&self, order: &[usize]) -> i64 {
        assert_eq!(order.len(), self.cities.len());
        let mut len = 0;
        for w in order.windows(2) {
            len += self.dist(w[0], w[1]);
        }
        len + self.dist(*order.last().unwrap(), order[0])
    }
}

/// A partial tour over a shared instance. Starts at city 0.
#[derive(Debug)]
pub struct TspGame {
    instance: std::sync::Arc<TspInstance>,
    visited_mask: Vec<bool>,
    tour: Vec<usize>,
    length_so_far: i64,
    /// Restrict branching to the `k` nearest unvisited cities (`None` =
    /// all). Mirrors the neighbourhood-size parameter of \[15\], which
    /// controlled their speedup.
    neighbourhood: Option<usize>,
}

impl Clone for TspGame {
    fn clone(&self) -> Self {
        Self {
            instance: self.instance.clone(),
            visited_mask: self.visited_mask.clone(),
            tour: self.tour.clone(),
            length_so_far: self.length_so_far,
            neighbourhood: self.neighbourhood,
        }
    }

    /// Copies into `self`'s buffers: the searches restore positions by
    /// copy, once per candidate evaluation.
    fn clone_from(&mut self, source: &Self) {
        if !std::sync::Arc::ptr_eq(&self.instance, &source.instance) {
            self.instance = source.instance.clone();
        }
        self.visited_mask.clone_from(&source.visited_mask);
        self.tour.clone_from(&source.tour);
        self.length_so_far = source.length_so_far;
        self.neighbourhood = source.neighbourhood;
    }
}

impl TspGame {
    pub fn new(instance: TspInstance, neighbourhood: Option<usize>) -> Self {
        let n = instance.cities.len();
        let mut visited_mask = vec![false; n];
        visited_mask[0] = true;
        Self {
            instance: std::sync::Arc::new(instance),
            visited_mask,
            tour: vec![0],
            length_so_far: 0,
            neighbourhood,
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &TspInstance {
        &self.instance
    }

    /// The tour so far (city indices).
    pub fn tour(&self) -> &[usize] {
        &self.tour
    }

    fn unvisited(&self) -> impl Iterator<Item = usize> + '_ {
        self.visited_mask
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (!v).then_some(i))
    }
}

impl CodedGame for TspGame {
    /// Codes are directed edges `(current city, next city)` — the
    /// standard NRPA-for-TSP identification.
    fn move_code(&self, mv: &u16) -> u64 {
        let here = *self.tour.last().unwrap() as u64;
        (here << 16) | *mv as u64
    }
}

impl Game for TspGame {
    /// A move is the index of the next city to visit.
    type Move = u16;

    fn legal_moves(&self, out: &mut Vec<u16>) {
        let here = *self.tour.last().unwrap();
        match self.neighbourhood {
            None => out.extend(self.unvisited().map(|c| c as u16)),
            Some(k) => CANDS.with(|cell| {
                let mut cands = cell.borrow_mut();
                cands.clear();
                cands.extend(self.unvisited().map(|c| (self.instance.dist(here, c), c)));
                cands.sort_unstable();
                out.extend(cands.iter().take(k.max(1)).map(|&(_, c)| c as u16));
            }),
        }
    }

    fn play(&mut self, mv: &u16) {
        let city = *mv as usize;
        debug_assert!(!self.visited_mask[city], "city {city} already visited");
        let here = *self.tour.last().unwrap();
        self.length_so_far += self.instance.dist(here, city);
        self.visited_mask[city] = true;
        self.tour.push(city);
    }

    /// Negated closed-tour length (larger = shorter tour). For partial
    /// tours the return edge is included, making the score an optimistic
    /// bound only at terminal states — searches compare terminal scores,
    /// so this is sound.
    fn score(&self) -> Score {
        let back = self.instance.dist(*self.tour.last().unwrap(), self.tour[0]);
        -(self.length_so_far + back)
    }

    fn moves_played(&self) -> usize {
        self.tour.len() - 1
    }

    fn is_terminal(&self) -> bool {
        self.tour.len() == self.instance.cities.len()
    }

    /// Two partial tours with the same visited set, the same current
    /// city, and the same length so far have identical futures, so the
    /// hash is an order-independent XOR over visited cities combined
    /// with those two scalars — permuted middles transpose, as a TSP
    /// table should. Allocation-free O(n) fold.
    fn state_hash(&self) -> u64 {
        let mut h = 0u64;
        for (c, &v) in self.visited_mask.iter().enumerate() {
            if v {
                h ^= mix64(c as u64 ^ TSP_HASH_CITY_SALT);
            }
        }
        let here = *self.tour.last().unwrap() as u64;
        let tail = mix64(here ^ TSP_HASH_TAIL_SALT) ^ (self.length_so_far as u64);
        mix64(h ^ mix64(tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::{sample, SearchSpec};

    #[test]
    fn distances_are_symmetric_and_triangle_ok() {
        let inst = TspInstance::random(10, 1);
        for a in 0..10 {
            for b in 0..10 {
                assert_eq!(inst.dist(a, b), inst.dist(b, a));
                for c in 0..10 {
                    // Rounding can violate the triangle inequality by at
                    // most 1 per edge.
                    assert!(inst.dist(a, c) <= inst.dist(a, b) + inst.dist(b, c) + 2);
                }
            }
        }
    }

    #[test]
    fn playout_visits_every_city_once() {
        let g = TspGame::new(TspInstance::random(12, 2), None);
        let r = sample(&g, &mut Rng::seeded(3));
        assert_eq!(r.sequence.len(), 11);
        let mut replay = g;
        for mv in &r.sequence {
            replay.play(mv);
        }
        assert!(replay.is_terminal());
        let mut tour = replay.tour().to_vec();
        tour.sort_unstable();
        assert_eq!(tour, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn score_matches_tour_length_at_terminal() {
        let g = TspGame::new(TspInstance::random(8, 4), None);
        let r = sample(&g, &mut Rng::seeded(5));
        let mut replay = g;
        for mv in &r.sequence {
            replay.play(mv);
        }
        let len = replay.instance().tour_length(replay.tour());
        assert_eq!(replay.score(), -len);
    }

    #[test]
    fn nmcs_shortens_tours_versus_flat_mc() {
        let inst = TspInstance::random(14, 6);
        let g = TspGame::new(inst, None);
        let flat = SearchSpec::flat_mc(200).seed(7).run(&g);
        let nm = SearchSpec::nested(2).seed(7).run(&g);
        assert!(
            nm.score >= flat.score,
            "NMCS tour {} should be no longer than flat-MC tour {}",
            -nm.score,
            -flat.score
        );
    }

    #[test]
    fn neighbourhood_limits_branching() {
        let g = TspGame::new(TspInstance::random(20, 8), Some(3));
        let mut moves = Vec::new();
        g.legal_moves(&mut moves);
        assert_eq!(moves.len(), 3);
        let g_full = TspGame::new(TspInstance::random(20, 8), None);
        let mut all = Vec::new();
        g_full.legal_moves(&mut all);
        assert_eq!(all.len(), 19);
    }

    #[test]
    fn neighbourhood_keeps_nearest_cities() {
        let inst = TspInstance {
            cities: vec![(0, 0), (10, 0), (20, 0), (5000, 0), (9000, 0)],
        };
        let g = TspGame::new(inst, Some(2));
        let mut moves = Vec::new();
        g.legal_moves(&mut moves);
        assert_eq!(moves, vec![1, 2]);
    }

    #[test]
    fn known_square_instance_optimal_tour() {
        // Four corners of a square: the optimal closed tour is the
        // perimeter, length 4 * side.
        let inst = TspInstance {
            cities: vec![(0, 0), (0, 1000), (1000, 1000), (1000, 0)],
        };
        let g = TspGame::new(inst, None);
        let r = SearchSpec::nested(2).seed(1).run(&g);
        assert_eq!(r.score, -4000, "NMCS must find the perimeter tour");
    }
}
