use pimdl_bench::experiments::sampled_kernels;
use pimdl_sim::cost::estimate_cost;
use pimdl_sim::{LutWorkload, MicroKernel, PlatformConfig};
use pimdl_tuner::model::analytical_cost;
use pimdl_tuner::space::{mapping_of, sub_lut_candidates};
use pimdl_tuner::tune;
fn main() {
    let p = PlatformConfig::upmem();
    let w = LutWorkload::new(32768, 192, 16, 2304).unwrap(); // Bert-Base QKV
    let t = tune(&p, &w).unwrap();
    let tm = t.mapping;
    let sim_t = estimate_cost(&p, &w, &tm).unwrap();
    println!(
        "tuner pick: N_s={} F_s={} n_m={} f_m={} cb_m={} {} {:?} | model {:.4}s sim {:.4}s",
        tm.n_stile,
        tm.f_stile,
        tm.kernel.n_mtile,
        tm.kernel.f_mtile,
        tm.kernel.cb_mtile,
        tm.kernel.traversal,
        tm.kernel.load_scheme,
        t.predicted_total_s,
        sim_t.time.total_s()
    );
    let tb = sim_t.time;
    println!("  sim breakdown: sub_idx {:.4} sub_lut {:.4} sub_out {:.4} k_idx {:.4} k_lut {:.4} k_out {:.4} k_red {:.4}",
        tb.sub_index_s, tb.sub_lut_s, tb.sub_output_s, tb.kernel_index_s, tb.kernel_lut_s, tb.kernel_output_s, tb.kernel_reduce_s);
    let mut best = (f64::INFINITY, None);
    let keep = |k: &MicroKernel| k.n_mtile >= 4 && k.f_mtile >= 4 && k.cb_mtile >= 2;
    for (n_s, f_s) in sub_lut_candidates(&w, &p) {
        for k in sampled_kernels(&w, &p, (n_s, f_s), keep, 1500) {
            let m = mapping_of(n_s, f_s, k);
            if let Ok(c) = estimate_cost(&p, &w, &m) {
                if c.time.total_s() < best.0 {
                    best = (c.time.total_s(), Some(m));
                }
            }
        }
    }
    let bm = best.1.unwrap();
    let bmod = analytical_cost(&p, &w, &bm).unwrap();
    let bsim = estimate_cost(&p, &w, &bm).unwrap().time;
    println!(
        "sim best:   N_s={} F_s={} n_m={} f_m={} cb_m={} {} {:?} | model {:.4}s sim {:.4}s",
        bm.n_stile,
        bm.f_stile,
        bm.kernel.n_mtile,
        bm.kernel.f_mtile,
        bm.kernel.cb_mtile,
        bm.kernel.traversal,
        bm.kernel.load_scheme,
        bmod.total_s(),
        best.0
    );
    println!("  sim breakdown: sub_idx {:.4} sub_lut {:.4} sub_out {:.4} k_idx {:.4} k_lut {:.4} k_out {:.4} k_red {:.4}",
        bsim.sub_index_s, bsim.sub_lut_s, bsim.sub_output_s, bsim.kernel_index_s, bsim.kernel_lut_s, bsim.kernel_output_s, bsim.kernel_reduce_s);
}
