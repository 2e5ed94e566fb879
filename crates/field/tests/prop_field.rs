//! Property tests for fields: dense storage against a map model,
//! barycentric identities and transfer exactness for linear functions on
//! randomized meshes.

use proptest::prelude::*;
use pumi_field::{barycentric, transfer_linear, Field, FieldShape, Locator};
use pumi_meshgen::{jitter, tet_box, tri_rect};
use pumi_util::{Dim, MeshEnt};
use std::collections::HashMap;

type Model = HashMap<MeshEnt, Vec<f64>>;

/// Every entity a test sequence can touch, plus indices past all of them.
fn universe() -> impl Iterator<Item = MeshEnt> {
    [Dim::Vertex, Dim::Edge, Dim::Face, Dim::Region]
        .into_iter()
        .flat_map(|d| (0..64).chain(4096..4160).map(move |i| MeshEnt::new(d, i)))
}

/// Whether `f` holds exactly the values of `model`, entity by entity.
fn agrees(f: &Field, model: &Model) -> bool {
    f.len() == model.len()
        && f.is_empty() == model.is_empty()
        && universe().all(|e| f.get(e) == model.get(&e).map(Vec::as_slice))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dense per-dimension field behaves exactly like a map from entity
    /// to value over random set/get/get_mut/remove sequences on a Quadratic
    /// field (vertex and edge nodes), including indices far past the current
    /// array length; a clone taken mid-sequence is independent afterwards.
    #[test]
    fn dense_field_matches_map_model(
        ops in proptest::collection::vec((0u8..5, 0u8..2, 0u32..48, 0u8..4), 1..160),
        ncomp in 1usize..4,
        clone_at in 0usize..160,
    ) {
        let mut f = Field::new("u", FieldShape::Quadratic, ncomp);
        let mut model = Model::new();
        let mut snapshot: Option<(Field, Model)> = None;
        for (step, &(op, d, i, far)) in ops.iter().enumerate() {
            let dim = if d == 0 { Dim::Vertex } else { Dim::Edge };
            // One draw in four jumps far past anything set so far.
            let e = MeshEnt::new(dim, if far == 0 { 4096 + i } else { i });
            let val: Vec<f64> = (0..ncomp).map(|k| step as f64 + 0.25 * k as f64).collect();
            match op {
                0 | 1 => {
                    f.set(e, &val);
                    model.insert(e, val);
                }
                2 => prop_assert_eq!(f.remove(e), model.remove(&e)),
                3 => {
                    let got = f.get_mut(e).map(|v| {
                        v[ncomp - 1] -= 1.0;
                        v.to_vec()
                    });
                    let want = model.get_mut(&e).map(|v| {
                        v[ncomp - 1] -= 1.0;
                        v.clone()
                    });
                    prop_assert_eq!(got, want);
                }
                _ => prop_assert_eq!(f.get(e), model.get(&e).map(Vec::as_slice)),
            }
            prop_assert_eq!(f.len(), model.len());
            if step == clone_at {
                snapshot = Some((f.clone(), model.clone()));
            }
        }
        prop_assert!(agrees(&f, &model));
        if let Some((g, gm)) = snapshot {
            // The clone saw none of the later writes and removals.
            prop_assert!(agrees(&g, &gm));
        }
    }

    /// Barycentric coordinates always sum to 1 and reproduce the point.
    #[test]
    fn barycentric_partition_of_unity(
        seed in 0u64..500,
        x in 0.05f64..0.95,
        y in 0.05f64..0.95,
    ) {
        let mut m = tri_rect(4, 4, 1.0, 1.0);
        jitter(&mut m, 0.25, seed);
        let loc = Locator::build(&m);
        let p = [x, y, 0.0];
        let (e, b) = loc.locate(p).expect("point in domain not located");
        let sum: f64 = b.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "bary sum {sum}");
        // Reconstruct p from the barycentrics.
        let mut q = [0.0f64; 3];
        for (&v, &bv) in m.verts_of(e).iter().zip(&b) {
            let xv = m.coords(MeshEnt::vertex(v));
            for a in 0..3 { q[a] += bv * xv[a]; }
        }
        prop_assert!((q[0] - p[0]).abs() < 1e-9 && (q[1] - p[1]).abs() < 1e-9);
        // Inside the element (within tolerance).
        prop_assert!(b.iter().all(|&c| c > -1e-6), "{b:?}");
    }

    /// Linear transfer reproduces any affine function exactly, for any pair
    /// of meshes over the same domain (including jittered ones).
    #[test]
    fn affine_transfer_is_exact(
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
        c in -3.0f64..3.0,
        seed in 0u64..500,
    ) {
        let mut src = tri_rect(5, 3, 1.0, 1.0);
        jitter(&mut src, 0.2, seed);
        let dst = tri_rect(4, 6, 1.0, 1.0);
        let mut f = Field::new("u", FieldShape::Linear, 1);
        f.set_from(&src, |p| vec![a * p[0] + b * p[1] + c]);
        let g = transfer_linear(&src, &f, &dst);
        for v in dst.iter(Dim::Vertex) {
            let p = dst.coords(v);
            let want = a * p[0] + b * p[1] + c;
            let got = g.get_scalar(v).expect("vertex not transferred");
            prop_assert!((got - want).abs() < 1e-8, "at {p:?}: {got} vs {want}");
        }
    }

    /// 3D: barycentric vertices are the canonical basis.
    #[test]
    fn tet_barycentric_basis(seed in 0u64..200) {
        let mut m = tet_box(2, 2, 2, 1.0, 1.0, 1.0);
        jitter(&mut m, 0.2, seed);
        let e = m.elems().next().unwrap();
        for (k, &v) in m.verts_of(e).iter().enumerate() {
            let p = m.coords(MeshEnt::vertex(v));
            let bary = barycentric(&m, e, p).unwrap();
            for (j, &bj) in bary.iter().enumerate() {
                let want = if j == k { 1.0 } else { 0.0 };
                prop_assert!((bj - want).abs() < 1e-9);
            }
        }
    }
}
