//! Bitwise oracle for the sparse [`Lu`]: dense right-looking Gaussian
//! elimination with partial pivoting over an `m × m` array, kept only as
//! a test reference. The sparse factorization must pick the same pivots
//! and its solves must return the same bits on every basis, and it must
//! reject exactly the bases the dense one rejects as singular.

use super::Lu;
use flexwan_util::rng::ChaCha8Rng;

/// Dense LU factorization of the basis matrix with partial pivoting:
/// `P·B = L·U` with unit-diagonal `L` stored below the diagonal of `lu`
/// and `U` on/above it; `piv[k]` records the row swapped with `k`.
struct DenseLu {
    m: usize,
    lu: Vec<f64>,
    piv: Vec<u32>,
}

impl DenseLu {
    /// Factorizes the matrix whose `k`-th column is the sparse column
    /// `cols[basis[k]]`. `None` when (numerically) singular.
    fn factor(cols: &[Vec<(u32, f64)>], basis: &[u32]) -> Option<DenseLu> {
        let m = basis.len();
        let mut a = vec![0.0; m * m];
        for (k, &b) in basis.iter().enumerate() {
            for &(i, v) in &cols[b as usize] {
                a[i as usize * m + k] = v;
            }
        }
        let mut piv = vec![0u32; m];
        for k in 0..m {
            let mut p = k;
            let mut best = a[k * m + k].abs();
            for i in k + 1..m {
                let v = a[i * m + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-10 {
                return None;
            }
            piv[k] = p as u32;
            if p != k {
                for j in 0..m {
                    a.swap(k * m + j, p * m + j);
                }
            }
            let d = a[k * m + k];
            for i in k + 1..m {
                let l = a[i * m + k] / d;
                if l != 0.0 {
                    a[i * m + k] = l;
                    for j in k + 1..m {
                        a[i * m + j] -= l * a[k * m + j];
                    }
                } else {
                    a[i * m + k] = 0.0;
                }
            }
        }
        Some(DenseLu { m, lu: a, piv })
    }

    /// Solves `B·x = v` in place.
    fn ftran(&self, v: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            let p = self.piv[k] as usize;
            if p != k {
                v.swap(k, p);
            }
        }
        for k in 0..m {
            let t = v[k];
            if t != 0.0 {
                for (i, vi) in v.iter_mut().enumerate().skip(k + 1) {
                    *vi -= self.lu[i * m + k] * t;
                }
            }
        }
        for k in (0..m).rev() {
            let t = v[k] / self.lu[k * m + k];
            v[k] = t;
            if t != 0.0 {
                for (i, vi) in v.iter_mut().enumerate().take(k) {
                    *vi -= self.lu[i * m + k] * t;
                }
            }
        }
    }

    /// Solves `Bᵀ·y = v` in place.
    fn btran(&self, v: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            let mut t = v[k];
            for (i, &vi) in v.iter().enumerate().take(k) {
                t -= self.lu[i * m + k] * vi;
            }
            v[k] = t / self.lu[k * m + k];
        }
        for k in (0..m).rev() {
            let mut t = v[k];
            for (i, &vi) in v.iter().enumerate().skip(k + 1) {
                t -= self.lu[i * m + k] * vi;
            }
            v[k] = t;
        }
        for k in (0..m).rev() {
            let p = self.piv[k] as usize;
            if p != k {
                v.swap(k, p);
            }
        }
    }
}

/// How a random basis is drawn.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Mostly unit (slack / artificial) columns, a few structurals.
    SlackHeavy,
    /// Mostly structural columns of moderate density.
    StructuralHeavy,
    /// Entries from `{±1, ±2}`, so pivot columns hold many ties.
    Ties,
    /// A basis made singular: a repeated column, an empty row, or a
    /// column that is the (rounded) sum of two others.
    Singular,
}

/// A random sparse column over `m` rows with about `density·m` entries.
fn random_column(rng: &mut ChaCha8Rng, m: usize, density: f64, ties: bool) -> Vec<(u32, f64)> {
    let mut col = Vec::new();
    for i in 0..m {
        if rng.gen_bool(density) {
            let v = if ties {
                let mag = if rng.gen_bool(0.5) { 1.0 } else { 2.0 };
                if rng.gen_bool(0.5) {
                    mag
                } else {
                    -mag
                }
            } else {
                rng.gen_range(-4.0..4.0)
            };
            if v != 0.0 {
                col.push((i as u32, v));
            }
        }
    }
    if col.is_empty() {
        col.push((rng.gen_range(0..m) as u32, 1.0));
    }
    col
}

/// A basis of `m` columns (`cols[basis[k]]` is column `k`) of `shape`.
fn random_basis(rng: &mut ChaCha8Rng, m: usize, shape: Shape) -> Vec<Vec<(u32, f64)>> {
    let mut cols = Vec::with_capacity(m);
    for _ in 0..m {
        let col = match shape {
            Shape::SlackHeavy if rng.gen_bool(0.9) => {
                let sign = if rng.gen_bool(0.8) { 1.0 } else { -1.0 };
                vec![(rng.gen_range(0..m) as u32, sign)]
            }
            Shape::SlackHeavy => random_column(rng, m, 0.2, false),
            Shape::StructuralHeavy => random_column(rng, m, 0.3, false),
            Shape::Ties => random_column(rng, m, 0.35, true),
            Shape::Singular => {
                let ties = rng.gen_bool(0.5);
                random_column(rng, m, 0.3, ties)
            }
        };
        cols.push(col);
    }
    if let Shape::SlackHeavy = shape {
        // Mostly a permuted identity, as a crashed simplex basis is.
        let mut rows: Vec<u32> = (0..m as u32).collect();
        rng.shuffle(&mut rows);
        for (col, &r) in cols.iter_mut().zip(&rows) {
            if col.len() == 1 {
                col[0].0 = r;
            }
        }
    }
    if let Shape::Singular = shape {
        if m >= 3 {
            let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
            match rng.gen_range(0..3u32) {
                0 if a != b => cols[b] = cols[a].clone(),
                1 => {
                    let dead = rng.gen_range(0..m) as u32;
                    for col in &mut cols {
                        col.retain(|&(i, _)| i != dead);
                    }
                }
                _ => {
                    let c = (a + 1 + rng.gen_range(0..m - 1)) % m;
                    let mut sum = vec![0.0; m];
                    for &(i, v) in cols[a].iter().chain(&cols[c]) {
                        sum[i as usize] += v;
                    }
                    let t = (0..m).find(|&t| t != a && t != c).unwrap();
                    cols[t] = (0..m)
                        .filter(|&i| sum[i] != 0.0)
                        .map(|i| (i as u32, sum[i]))
                        .collect();
                }
            }
        } else {
            cols[0].clear();
        }
    }
    cols
}

/// Right-hand sides: a unit vector, a sparse one and a dense one, each
/// with signed zeros sprinkled in (the eta file hands `−0` to the LU).
fn right_hand_sides(rng: &mut ChaCha8Rng, m: usize) -> Vec<Vec<f64>> {
    let mut unit = vec![0.0; m];
    unit[rng.gen_range(0..m)] = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let mut sparse = vec![0.0; m];
    let mut dense = vec![0.0; m];
    for i in 0..m {
        if rng.gen_bool(0.15) {
            sparse[i] = rng.gen_range(-3.0..3.0);
        } else if rng.gen_bool(0.3) {
            sparse[i] = -0.0;
        }
        dense[i] = if rng.gen_bool(0.1) {
            -0.0
        } else {
            rng.gen_range(-3.0..3.0)
        };
    }
    vec![unit, sparse, dense]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sparse_lu_matches_dense_lu_bitwise() {
    let shapes = [
        Shape::SlackHeavy,
        Shape::StructuralHeavy,
        Shape::Ties,
        Shape::Singular,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let (mut factored, mut singular) = (0, 0);
    for case in 0..600 {
        let shape = shapes[case % shapes.len()];
        let m = rng.gen_range(1..=40usize);
        let cols = random_basis(&mut rng, m, shape);
        let basis: Vec<u32> = (0..m as u32).collect();
        let dense = DenseLu::factor(&cols, &basis);
        let sparse = Lu::factor(&cols, &basis);
        let (dense, sparse) = match (dense, sparse) {
            (None, None) => {
                singular += 1;
                continue;
            }
            (Some(d), Some(s)) => (d, s),
            (d, s) => panic!(
                "case {case} ({shape:?}, m={m}): dense singular {} vs sparse singular {}",
                d.is_none(),
                s.is_none()
            ),
        };
        factored += 1;
        assert_eq!(dense.piv, sparse.piv, "case {case} ({shape:?}): pivots");
        for (r, rhs) in right_hand_sides(&mut rng, m).into_iter().enumerate() {
            let (mut d, mut s) = (rhs.clone(), rhs.clone());
            dense.ftran(&mut d);
            sparse.ftran(&mut s);
            assert_eq!(bits(&d), bits(&s), "case {case} ({shape:?}) ftran rhs {r}");
            let (mut d, mut s) = (rhs.clone(), rhs);
            dense.btran(&mut d);
            sparse.btran(&mut s);
            assert_eq!(bits(&d), bits(&s), "case {case} ({shape:?}) btran rhs {r}");
        }
    }
    assert!(
        factored >= 300 && singular >= 100,
        "{factored} factored, {singular} singular"
    );
}
