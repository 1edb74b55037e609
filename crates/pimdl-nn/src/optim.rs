//! First-order optimizers: SGD (with momentum) and Adam.
//!
//! Optimizer state is keyed by the stable parameter visitation order of the
//! model (`visit_params` always enumerates parameters in the same sequence
//! for a fixed architecture), so optimizers need no parameter registry.

/// Plain SGD with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update to the parameter with visitation index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the same index is reused with a different parameter length.
    pub fn step(&mut self, idx: usize, data: &mut [f32], grad: &[f32]) {
        assert_eq!(data.len(), grad.len());
        while self.velocity.len() <= idx {
            self.velocity.push(Vec::new());
        }
        let v = &mut self.velocity[idx];
        if v.is_empty() {
            v.resize(data.len(), 0.0);
        }
        assert_eq!(v.len(), data.len(), "parameter {idx} changed size");
        for i in 0..data.len() {
            v[i] = self.momentum * v[i] + grad[i];
            data[i] -= self.lr * v[i];
        }
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Advances the global timestep. Call once per optimization step, before
    /// the per-parameter [`Adam::step`] calls for that batch.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Current timestep (number of `begin_step` calls).
    pub fn timestep(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to the parameter with visitation index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `begin_step` has never been called, or if the index is
    /// reused with a different parameter length.
    pub fn step(&mut self, idx: usize, data: &mut [f32], grad: &[f32]) {
        assert!(self.t > 0, "call begin_step() before step()");
        assert_eq!(data.len(), grad.len());
        while self.m.len() <= idx {
            self.m.push(Vec::new());
            self.v.push(Vec::new());
        }
        if self.m[idx].is_empty() {
            self.m[idx].resize(data.len(), 0.0);
            self.v[idx].resize(data.len(), 0.0);
        }
        assert_eq!(
            self.m[idx].len(),
            data.len(),
            "parameter {idx} changed size"
        );
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        let m = &mut self.m[idx];
        let v = &mut self.v[idx];
        for i in 0..data.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = m[i] / bias1;
            let v_hat = v[i] / bias2;
            data[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 with gradient 2(x - 3).
    fn quadratic_grad(x: f32) -> f32 {
        2.0 * (x - 3.0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut x = [0.0_f32];
        for _ in 0..100 {
            let g = [quadratic_grad(x[0])];
            opt.step(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x={}", x[0]);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32| {
            let mut opt = Sgd::new(0.01, momentum);
            let mut x = [0.0_f32];
            for _ in 0..50 {
                let g = [quadratic_grad(x[0])];
                opt.step(0, &mut x, &g);
            }
            (x[0] - 3.0).abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let mut x = [0.0_f32];
        for _ in 0..300 {
            opt.begin_step();
            let g = [quadratic_grad(x[0])];
            opt.step(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x={}", x[0]);
    }

    #[test]
    fn adam_tracks_multiple_params_independently() {
        let mut opt = Adam::new(0.05);
        let mut a = [0.0_f32];
        let mut b = [10.0_f32, 10.0];
        for _ in 0..2000 {
            opt.begin_step();
            let ga = [2.0 * (a[0] - 1.0)];
            opt.step(0, &mut a, &ga);
            let gb: Vec<f32> = b.iter().map(|&v| 2.0 * (v + 2.0)).collect();
            opt.step(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 0.1, "a={}", a[0]);
        assert!((b[0] + 2.0).abs() < 0.1, "b0={}", b[0]);
        assert!((b[1] + 2.0).abs() < 0.1, "b1={}", b[1]);
    }

    #[test]
    #[should_panic(expected = "call begin_step")]
    fn adam_requires_begin_step() {
        let mut opt = Adam::new(0.1);
        let mut x = [0.0_f32];
        opt.step(0, &mut x, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "changed size")]
    fn sgd_rejects_resized_param() {
        let mut opt = Sgd::new(0.1, 0.9);
        let mut x = [0.0_f32, 1.0];
        opt.step(0, &mut x, &[1.0, 1.0]);
        let mut y = [0.0_f32];
        opt.step(0, &mut y, &[1.0]);
    }

    #[test]
    fn adam_timestep_counts() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.timestep(), 0);
        opt.begin_step();
        opt.begin_step();
        assert_eq!(opt.timestep(), 2);
    }
}
