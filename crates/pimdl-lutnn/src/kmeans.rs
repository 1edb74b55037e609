//! Lloyd's k-means with k-means++ seeding.
//!
//! This is the centroid-clustering step of LUT-NN conversion (paper §3.1,
//! step ❶): activation sub-vectors within one column are clustered into `CT`
//! centroids of length `V`.

use pimdl_tensor::rng::DataRng;
use pimdl_tensor::Matrix;

use crate::kernels::assign_nearest;
use crate::{LutError, Result};

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Centroid matrix, `k x dim`.
    pub centroids: Matrix,
    /// Cluster assignment of every input point.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
    /// Number of Lloyd iterations actually performed.
    pub iterations: usize,
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Runs k-means on the rows of `points` (`n x dim`) with `k` clusters and at
/// most `max_iters` Lloyd iterations.
///
/// Seeding is k-means++; empty clusters are re-seeded from the point that is
/// currently farthest from its assigned centroid, so the result always has
/// `k` usable centroids (possibly duplicated when `n < k`).
///
/// # Errors
///
/// Returns [`LutError::Clustering`] if `points` is empty or `k == 0`.
#[allow(clippy::needless_range_loop)]
pub fn kmeans(
    points: &Matrix,
    k: usize,
    max_iters: usize,
    rng: &mut DataRng,
) -> Result<KMeansResult> {
    let n = points.rows();
    let dim = points.cols();
    if n == 0 || dim == 0 {
        return Err(LutError::Clustering {
            detail: format!("cannot cluster {n} points of dim {dim}"),
        });
    }
    if k == 0 {
        return Err(LutError::Clustering {
            detail: "k must be positive".to_string(),
        });
    }

    let mut centroids = kmeanspp_init(points, k, rng);
    let mut assignments = vec![0usize; n];
    let mut nearest = vec![(0usize, 0.0f32); n];
    let mut inertia = f32::INFINITY;
    let mut iterations = 0;

    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        // Assignment step — the K-contiguous distance kernel + first-wins
        // argmin in `kernels`, pool-parallel on large inputs.
        assign_nearest(points, &centroids, &mut nearest);
        let mut new_inertia = 0.0;
        for (assignment, &(best, best_d)) in assignments.iter_mut().zip(&nearest) {
            *assignment = best;
            new_inertia += best_d;
        }

        // Update step.
        let mut sums = Matrix::zeros(k, dim);
        let mut counts = vec![0usize; k];
        for (i, &a) in assignments.iter().enumerate() {
            counts[a] += 1;
            for (s, v) in sums.row_mut(a).iter_mut().zip(points.row(i)) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f32;
                let row: Vec<f32> = sums.row(c).iter().map(|s| s * inv).collect();
                centroids.row_mut(c).copy_from_slice(&row);
            } else {
                // Re-seed from the farthest point.
                let far = farthest_point(points, &centroids, &assignments);
                let row = points.row(far).to_vec();
                centroids.row_mut(c).copy_from_slice(&row);
            }
        }

        // Converged when inertia stops improving meaningfully.
        let converged = (inertia - new_inertia).abs() <= 1e-7 * (1.0 + inertia.abs());
        inertia = new_inertia;
        if converged {
            break;
        }
    }
    let _ = inertia; // superseded by the final assignment pass below

    // Final assignment pass so assignments are consistent with the returned
    // (post-update) centroids.
    inertia = 0.0;
    assign_nearest(points, &centroids, &mut nearest);
    for (assignment, &(best, best_d)) in assignments.iter_mut().zip(&nearest) {
        *assignment = best;
        inertia += best_d;
    }

    Ok(KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    })
}

fn kmeanspp_init(points: &Matrix, k: usize, rng: &mut DataRng) -> Matrix {
    let n = points.rows();
    let dim = points.cols();
    let mut centroids = Matrix::zeros(k, dim);
    let first = rng.index(n);
    centroids.row_mut(0).copy_from_slice(points.row(first));

    let mut dists: Vec<f32> = (0..n)
        .map(|i| sq_dist(points.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f32 = dists.iter().sum();
        let chosen = if total <= 0.0 {
            rng.index(n)
        } else {
            let mut target = rng.uniform(0.0, total.max(f32::EPSILON));
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.row_mut(c).copy_from_slice(points.row(chosen));
        for (i, d) in dists.iter_mut().enumerate() {
            *d = d.min(sq_dist(points.row(i), centroids.row(c)));
        }
    }
    centroids
}

fn farthest_point(points: &Matrix, centroids: &Matrix, assignments: &[usize]) -> usize {
    let mut far = 0;
    let mut far_d = -1.0;
    for (i, &a) in assignments.iter().enumerate() {
        let d = sq_dist(points.row(i), centroids.row(a));
        if d > far_d {
            far_d = d;
            far = i;
        }
    }
    far
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_points(rng: &mut DataRng) -> Matrix {
        let mut points = Matrix::zeros(100, 2);
        for i in 0..50 {
            points.set(i, 0, rng.normal(-5.0, 0.3));
            points.set(i, 1, rng.normal(-5.0, 0.3));
        }
        for i in 50..100 {
            points.set(i, 0, rng.normal(5.0, 0.3));
            points.set(i, 1, rng.normal(5.0, 0.3));
        }
        points
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = DataRng::new(0);
        let points = two_blob_points(&mut rng);
        let result = kmeans(&points, 2, 50, &mut rng).unwrap();
        // Centroids near (-5,-5) and (5,5) in some order.
        let c0 = result.centroids.row(0);
        let c1 = result.centroids.row(1);
        let (neg, pos) = if c0[0] < 0.0 { (c0, c1) } else { (c1, c0) };
        assert!((neg[0] + 5.0).abs() < 0.5 && (neg[1] + 5.0).abs() < 0.5);
        assert!((pos[0] - 5.0).abs() < 0.5 && (pos[1] - 5.0).abs() < 0.5);
        // All points in the same blob share an assignment.
        let first_half = result.assignments[0];
        assert!(result.assignments[..50].iter().all(|&a| a == first_half));
        assert!(result.assignments[50..].iter().all(|&a| a != first_half));
    }

    #[test]
    fn inertia_never_increases_with_more_clusters() {
        let mut rng = DataRng::new(1);
        let points = rng.normal_matrix(200, 4, 0.0, 1.0);
        let mut prev = f32::INFINITY;
        for k in [1, 2, 4, 8, 16] {
            let result = kmeans(&points, k, 30, &mut DataRng::new(7)).unwrap();
            assert!(
                result.inertia <= prev * 1.05,
                "k={k}: inertia {} vs prev {prev}",
                result.inertia
            );
            prev = result.inertia;
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let mut rng = DataRng::new(2);
        let points = rng.normal_matrix(8, 3, 0.0, 1.0);
        let result = kmeans(&points, 8, 50, &mut rng).unwrap();
        assert!(result.inertia < 1e-6, "inertia={}", result.inertia);
    }

    #[test]
    fn k_greater_than_n_still_works() {
        let mut rng = DataRng::new(3);
        let points = rng.normal_matrix(3, 2, 0.0, 1.0);
        let result = kmeans(&points, 8, 10, &mut rng).unwrap();
        assert_eq!(result.centroids.rows(), 8);
        assert!(result.assignments.iter().all(|&a| a < 8));
    }

    #[test]
    fn identical_points_converge_immediately() {
        let points = Matrix::full(10, 2, 3.0);
        let mut rng = DataRng::new(4);
        let result = kmeans(&points, 2, 50, &mut rng).unwrap();
        assert!(result.inertia < 1e-10);
        assert!(result.iterations <= 3);
    }

    #[test]
    fn rejects_empty_input() {
        let mut rng = DataRng::new(5);
        assert!(kmeans(&Matrix::zeros(0, 2), 2, 10, &mut rng).is_err());
        assert!(kmeans(&Matrix::zeros(5, 0), 2, 10, &mut rng).is_err());
        assert!(kmeans(&Matrix::zeros(5, 2), 0, 10, &mut rng).is_err());
    }

    #[test]
    fn assignments_are_nearest_centroid() {
        let mut rng = DataRng::new(6);
        let points = rng.normal_matrix(60, 3, 0.0, 2.0);
        let result = kmeans(&points, 4, 40, &mut rng).unwrap();
        for i in 0..60 {
            let assigned = sq_dist(points.row(i), result.centroids.row(result.assignments[i]));
            for c in 0..4 {
                assert!(
                    assigned <= sq_dist(points.row(i), result.centroids.row(c)) + 1e-5,
                    "point {i} closer to centroid {c} than its assignment"
                );
            }
        }
    }

    #[test]
    fn sq_dist_basics() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }
}
