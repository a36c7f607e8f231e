//! The four traffic mixes: server configuration, seeded body pools, swap
//! artifacts, and the expected class of every body under every weight set.

use harvest_data::{DatasetId, Sampler};
use harvest_engine::{encode_artifact, Executor, MaterializedWeights, WeightStore};
use harvest_imaging::decode_auto;
use harvest_models::{Graph, VitConfig};
use harvest_net::WireConfig;
use harvest_preproc::preprocess_decoded;
use harvest_simkit::SimRng;

/// Table 3's ViT-Tiny, with Plant Village's 39 classes.
pub const VIT_TINY: VitConfig = VitConfig {
    dim: 192,
    depth: 12,
    heads: 3,
    patch: 2,
    img: 32,
    mlp_ratio: 4,
    classes: 39,
};

/// Body cap for workloads that carry 4K frames or ViT-Tiny artifacts
/// (both exceed the 1 MiB default).
const LARGE_BODY_CAP: usize = 32 << 20;

/// One traffic mix. Rates and latency limits were fixed once from the
/// measured seed numbers (at most half the saturation goodput, about three
/// times the unloaded p50) and are not retuned afterwards.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Open-loop arrival rate of `/classify`, requests per second.
    pub rate_rps: f64,
    /// Keep-alive connections the open loop sends on (at most the
    /// benchmark's client count).
    pub open_conns: usize,
    /// A `/classify` answer slower than this misses (goodput).
    pub limit_ms: f64,
    /// Bodies in the seeded pool.
    pub pool: usize,
    /// Seconds between `POST /admin/swap` operations under load.
    pub swap_every_s: Option<f64>,
    /// Seconds between `GET /metrics` scrapes under load.
    pub scrape_every_s: Option<f64>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "field-vit-tiny",
        rate_rps: 1.8,
        open_conns: 2,
        limit_ms: 900.0,
        pool: 8,
        swap_every_s: None,
        scrape_every_s: None,
    },
    Workload {
        name: "trap-crops-tinyml",
        rate_rps: 135.0,
        open_conns: 2,
        limit_ms: 22.0,
        pool: 64,
        swap_every_s: None,
        scrape_every_s: None,
    },
    Workload {
        name: "ground-4k-preproc",
        // One connection at 4/s: a ~130 ms frame rarely overlaps the next
        // arrival, and the connection never idles past the server's 250 ms
        // keep-alive timeout. Two connections at this rate reconnect on
        // every request; at 7/s, overlapping frames made p90 swing with
        // the host's load.
        rate_rps: 4.0,
        open_conns: 1,
        limit_ms: 400.0,
        pool: 3,
        swap_every_s: None,
        scrape_every_s: None,
    },
    Workload {
        name: "swap-under-load",
        rate_rps: 1.8,
        open_conns: 2,
        limit_ms: 900.0,
        pool: 8,
        swap_every_s: Some(2.0),
        scrape_every_s: Some(1.0),
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The server configuration: `WireConfig::default()` with only the
    /// fields this mix is about changed.
    pub fn config(&self) -> WireConfig {
        let mut c = WireConfig::default();
        match self.name {
            "field-vit-tiny" | "swap-under-load" => {
                c.model = VIT_TINY;
                c.out_res = VIT_TINY.img;
                // The default degraded rung is a 4-class 16×16 model, which
                // the server refuses beside a 39-class 32×32 one.
                c.degraded_model = None;
                if self.swap_every_s.is_some() {
                    // Room for the 21.6 MB ViT-Tiny artifact on /admin/swap.
                    c.limits.max_body_bytes = LARGE_BODY_CAP;
                }
            }
            "ground-4k-preproc" => c.limits.max_body_bytes = LARGE_BODY_CAP,
            _ => {}
        }
        c
    }

    /// The datasets this mix draws bodies from.
    fn datasets(&self) -> &'static [DatasetId] {
        match self.name {
            "trap-crops-tinyml" => &[DatasetId::SpittleBug],
            "ground-4k-preproc" => &[DatasetId::Crsa],
            _ => &[
                DatasetId::PlantVillage,
                DatasetId::CornGrowthStage,
                DatasetId::WeedSoybean,
            ],
        }
    }

    /// Weight seeds the swap artifacts cycle through: a fresh seed from
    /// `seed`, then back to the boot weights, so every swap changes the
    /// serving generation's fingerprint.
    pub fn swap_seeds(&self, seed: u64) -> Vec<u64> {
        let boot = self.config().model_seed;
        vec![boot ^ (seed << 8 | 1), boot]
    }
}

/// One request body and the exact request bytes that carry it.
pub struct Body {
    pub dataset: DatasetId,
    /// `POST /classify` head followed by the encoded image.
    pub request: Vec<u8>,
    /// Where the image starts inside `request`.
    pub body_at: usize,
}

impl Body {
    pub fn image(&self) -> &[u8] {
        &self.request[self.body_at..]
    }
}

/// Frame `body` as a keep-alive HTTP/1.1 POST to `path`.
pub fn post_request(path: &str, body: &[u8]) -> (Vec<u8>, usize) {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: wirebench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    let at = req.len();
    req.extend_from_slice(body);
    (req, at)
}

/// The seeded body pool: each body picks its dataset and sample index
/// from `seed`, and the bytes come from the dataset's own generator.
pub fn body_pool(w: &Workload, seed: u64) -> Vec<Body> {
    let datasets = w.datasets();
    let mut rng = SimRng::new(seed ^ 0x5eed_b0d1);
    (0..w.pool)
        .map(|_| {
            let dataset = datasets[rng.below(datasets.len() as u64) as usize];
            let sampler = Sampler::new(dataset, seed);
            let index = rng.below(sampler.spec().samples as u64) as u32;
            let (request, body_at) = post_request("/classify", &sampler.encode(index).bytes);
            Body {
                dataset,
                request,
                body_at,
            }
        })
        .collect()
}

/// A fresh weight artifact for `graph` from `weight_seed`, and the
/// fingerprint the server should report once it serves it.
pub fn artifact(graph: &Graph, weight_seed: u64) -> (Vec<u8>, u64) {
    let w = MaterializedWeights::new(graph, &WeightStore::new(weight_seed), false);
    (encode_artifact(&w), w.fingerprint())
}

/// First maximum wins, matching the server's tie rule.
pub fn argmax(data: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in data.iter().enumerate() {
        if v > data[best] {
            best = i;
        }
    }
    best
}

/// The class the served model must answer for each body under the
/// weights from `weight_seed`: the wire's own decode → preprocess →
/// forward, computed in-process.
pub fn expected_classes(
    pool: &[Body],
    graph: &Graph,
    weight_seed: u64,
    out_res: usize,
) -> Vec<usize> {
    let exec = Executor::new(graph, weight_seed);
    let inputs: Vec<_> = pool
        .iter()
        .map(|b| {
            let img = decode_auto(b.image()).expect("generated bodies decode");
            preprocess_decoded(&img, out_res)
        })
        .collect();
    let mut sink = Vec::new();
    let per = exec.forward_batch_into(&inputs, &mut sink).max(1);
    sink.chunks_exact(per).map(argmax).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(pool: &[Body]) -> Vec<(DatasetId, Vec<u8>)> {
        pool.iter()
            .map(|b| (b.dataset, b.request.clone()))
            .collect()
    }

    #[test]
    fn one_seed_generates_identical_bytes_and_another_seed_differs() {
        for name in ["field-vit-tiny", "trap-crops-tinyml"] {
            let w = find(name).expect("known workload");
            let a = digest(&body_pool(&w, 11));
            let b = digest(&body_pool(&w, 11));
            let c = digest(&body_pool(&w, 12));
            assert_eq!(a, b, "{name}: same seed, same bytes");
            assert_ne!(a, c, "{name}: different seed, different bytes");
        }
    }

    #[test]
    fn configs_start_from_default_and_only_touch_their_fields() {
        let d = WireConfig::default();
        let trap = find("trap-crops-tinyml").unwrap().config();
        assert_eq!(format!("{trap:?}"), format!("{d:?}"));
        let k4 = find("ground-4k-preproc").unwrap().config();
        assert_eq!(k4.limits.max_body_bytes, LARGE_BODY_CAP);
        assert_eq!(format!("{:?}", k4.model), format!("{:?}", d.model));
        let vt = find("field-vit-tiny").unwrap().config();
        assert_eq!(format!("{:?}", vt.model), format!("{VIT_TINY:?}"));
        assert_eq!(vt.out_res, 32);
        assert_eq!(vt.limits.max_body_bytes, d.limits.max_body_bytes);
        let swap = find("swap-under-load").unwrap().config();
        assert_eq!(swap.limits.max_body_bytes, LARGE_BODY_CAP);
        assert_eq!(
            (vt.engine_workers, vt.accept_threads, vt.preferred_batch),
            (d.engine_workers, d.accept_threads, d.preferred_batch)
        );
    }
}
