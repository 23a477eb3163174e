//! Consistency of the colouring baselines across crates: every algorithm produces a
//! proper colouring, the exact solver is never beaten, and on symmetric lattice
//! neighbourhoods the tiling schedule matches the exact optimum.

use latsched::prelude::*;

fn conflicts(side: i64, shape: &Prototile) -> ConflictGraph {
    let window = BoxRegion::square_window(2, side).unwrap();
    InterferenceGraph::from_window(&window, Deployment::Homogeneous(shape.clone()))
        .unwrap()
        .conflict_graph()
}

#[test]
fn all_algorithms_produce_proper_colourings() {
    for shape in [shapes::von_neumann(), shapes::moore()] {
        let graph = conflicts(6, &shape);
        let results = vec![
            ("tdma", tdma_coloring(&graph).unwrap()),
            (
                "greedy-natural",
                greedy_coloring(&graph, GreedyOrder::Natural).unwrap(),
            ),
            (
                "greedy-degree",
                greedy_coloring(&graph, GreedyOrder::LargestDegreeFirst).unwrap(),
            ),
            (
                "greedy-random",
                greedy_coloring(&graph, GreedyOrder::Random(3)).unwrap(),
            ),
            ("dsatur", dsatur_coloring(&graph).unwrap()),
            (
                "annealing",
                latsched::coloring::annealing_coloring(
                    &graph,
                    &latsched::coloring::AnnealingParams::default(),
                )
                .unwrap(),
            ),
            ("exact", exact_coloring(&graph, 64).unwrap()),
        ];
        let exact_count = results.last().unwrap().1.colors_used;
        for (name, coloring) in &results {
            assert!(graph.is_proper(&coloring.colors), "{name} on {shape}");
            assert!(
                coloring.colors_used >= exact_count,
                "{name} beat the exact optimum on {shape}"
            );
        }
    }
}

#[test]
fn tiling_schedule_matches_exact_chromatic_number_for_symmetric_neighbourhoods() {
    // Symmetric neighbourhoods: the paper's collision model equals distance-2
    // colouring, so the |N|-slot tiling schedule should match the chromatic number of
    // windows that contain N + N.
    for (shape, expected) in [(shapes::von_neumann(), 5usize), (shapes::moore(), 9usize)] {
        let graph = conflicts(6, &shape);
        let exact = exact_coloring(&graph, 32).unwrap();
        assert_eq!(exact.colors_used, expected, "{shape}");
        let tiling = find_tiling(&shape).unwrap().unwrap();
        assert_eq!(
            theorem1::schedule_from_tiling(&tiling).num_slots(),
            expected
        );
    }
}

#[test]
fn heuristic_quality_ordering_on_larger_instances() {
    let shape = shapes::moore();
    let graph = conflicts(10, &shape);
    let tdma = tdma_coloring(&graph).unwrap().colors_used;
    let greedy = greedy_coloring(&graph, GreedyOrder::Natural)
        .unwrap()
        .colors_used;
    let dsatur = dsatur_coloring(&graph).unwrap().colors_used;
    // The paper's scaling point: TDMA uses |V| slots, the clever schemes stay near
    // the neighbourhood size regardless of the network size.
    assert_eq!(tdma, 100);
    assert!(greedy <= 2 * shape.len());
    assert!(dsatur <= greedy + 2);
    assert!(dsatur >= shape.len());
}

#[test]
fn interference_graph_edge_counts_scale_with_window_size() {
    let shape = shapes::von_neumann();
    let small = InterferenceGraph::from_window(
        &BoxRegion::square_window(2, 4).unwrap(),
        Deployment::Homogeneous(shape.clone()),
    )
    .unwrap();
    let large = InterferenceGraph::from_window(
        &BoxRegion::square_window(2, 8).unwrap(),
        Deployment::Homogeneous(shape),
    )
    .unwrap();
    assert!(large.len() == 64 && small.len() == 16);
    assert!(large.edge_count() > small.edge_count());
    // Interior vertices affect exactly 4 neighbours.
    let interior = large
        .positions()
        .iter()
        .position(|p| p == &Point::xy(4, 4))
        .unwrap();
    assert_eq!(large.affected_by(interior).unwrap().len(), 4);
}

/// The shapes the colourings are pinned on, by name, with their dimension.
fn pinned_shape(name: &str) -> (Prototile, usize) {
    match name {
        "moore" => (shapes::moore(), 2),
        "von-neumann" => (shapes::von_neumann(), 2),
        "hex7" => (shapes::hex7(), 2),
        "antenna" => (shapes::directional_antenna(), 2),
        "moore-3d" => (shapes::chebyshev_ball(3, 1).unwrap(), 3),
        _ => unreachable!("pinned shapes are fixed"),
    }
}

fn window_conflicts(name: &str, side: i64) -> ConflictGraph {
    let (shape, dim) = pinned_shape(name);
    let window = BoxRegion::square_window(dim, side).unwrap();
    InterferenceGraph::from_window(&window, Deployment::Homogeneous(shape))
        .unwrap()
        .conflict_graph()
}

/// FNV-1a over the little-endian `u64` bytes of each vertex's colour.
fn fnv1a(colors: &[usize]) -> u64 {
    colors
        .iter()
        .flat_map(|&c| (c as u64).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every generator's colouring of the graph as (fingerprint, colours used),
/// in the order tdma, greedy natural, greedy largest-degree-first, greedy
/// random(7), DSATUR, annealing, then exact on graphs of at most 49 vertices.
fn generator_colourings(graph: &ConflictGraph) -> Vec<(u64, usize)> {
    let mut colorings = vec![
        tdma_coloring(graph).unwrap(),
        greedy_coloring(graph, GreedyOrder::Natural).unwrap(),
        greedy_coloring(graph, GreedyOrder::LargestDegreeFirst).unwrap(),
        greedy_coloring(graph, GreedyOrder::Random(7)).unwrap(),
        dsatur_coloring(graph).unwrap(),
        latsched::coloring::annealing_coloring(
            graph,
            &latsched::coloring::AnnealingParams::default(),
        )
        .unwrap(),
    ];
    if graph.len() <= 49 {
        colorings.push(exact_coloring(graph, graph.len()).unwrap());
    }
    colorings
        .iter()
        .map(|c| (fnv1a(&c.colors), c.colors_used))
        .collect()
}

/// One pinned case: shape, window side, greedy clique bound, edge count,
/// conflicts of the all-zero colouring, then [`generator_colourings`].
type Pinned = (
    &'static str,
    i64,
    usize,
    usize,
    usize,
    &'static [(u64, usize)],
);

/// Generated once from the dense-matrix conflict graph, so every later
/// representation of the graph must reproduce each colouring bit for bit.
#[rustfmt::skip]
const PINNED: [Pinned; 36] = [
    ("moore", 4, 9, 90, 90, &[(0x3f71fbaf4605ff25, 16), (0xb9e82a6f2ec1846b, 9), (0x1142f1ff40c51945, 9), (0xbf4715625795a50d, 10), (0x1142f1ff40c51945, 9), (0x1142f1ff40c51945, 9), (0x1142f1ff40c51945, 9)]),
    ("moore", 5, 9, 168, 168, &[(0x6173f8c60ed7dcdd, 25), (0x657c89b5fa91e50d, 9), (0x1060fef8633e9545, 9), (0xe8a4c956ba6a12e7, 10), (0x1060fef8633e9545, 9), (0x1060fef8633e9545, 9), (0x1060fef8633e9545, 9)]),
    ("moore", 7, 9, 396, 396, &[(0xc6133874d4e57ab5, 49), (0x14e000aea642ae85, 9), (0x23f1e0b28d2112c1, 9), (0x90154b2eee83bf6c, 12), (0x23f1e0b28d2112c1, 9), (0x23f1e0b28d2112c1, 9), (0x23f1e0b28d2112c1, 9)]),
    ("moore", 8, 9, 546, 546, &[(0x310e42af98fb7125, 64), (0xf5ebd82ca99723e3, 9), (0x3112e6fa4743e3ab, 9), (0x4b931cb3090b0fe5, 15), (0x3112e6fa4743e3ab, 9), (0x3112e6fa4743e3ab, 9)]),
    ("moore", 12, 9, 1386, 1386, &[(0xbd2db8e6c49adf25, 144), (0xe925940f27c9eb25, 9), (0x1631fe55518ea925, 9), (0x902c6a769f38cfe2, 15), (0x1631fe55518ea925, 9), (0x1631fe55518ea925, 9)]),
    ("moore", 16, 9, 2610, 2610, &[(0x47b5eeb1c24f5b25, 256), (0xea6eb7353701bf2b, 9), (0x9e743dfc10d28e29, 9), (0x1b0838a26ce9cd74, 17), (0x9e743dfc10d28e29, 9), (0x9e743dfc10d28e29, 9)]),
    ("moore", 24, 9, 6210, 6210, &[(0xbf399c9b000cb425, 576), (0x57203110e28d4325, 9), (0xe702e61ebe923b25, 9), (0x9d3475604aabc966, 15), (0xe702e61ebe923b25, 9), (0xe702e61ebe923b25, 9)]),
    ("moore", 32, 9, 11346, 11346, &[(0x21b84c137ccdb625, 1024), (0x5c2a25e8a009e863, 9), (0xd344cfc8762b812b, 9), (0x3d013484cbe4f9aa, 17), (0xd344cfc8762b812b, 9), (0xd344cfc8762b812b, 9)]),
    ("von-neumann", 4, 4, 58, 58, &[(0x3f71fbaf4605ff25, 16), (0x65c3605a36ff3e44, 6), (0x6a88bdc343cd7b45, 6), (0x8b60bfd8135b50c6, 7), (0x13fecf1379944725, 5), (0x13fecf1379944725, 5), (0x13fecf1379944725, 5)]),
    ("von-neumann", 5, 5, 102, 102, &[(0x6173f8c60ed7dcdd, 25), (0x509b0b7390099d44, 7), (0x4729c4a96359f0c2, 6), (0x07c3e321f194ff86, 7), (0x323a55ff679ba341, 5), (0x323a55ff679ba341, 5), (0x323a55ff679ba341, 5)]),
    ("von-neumann", 7, 5, 226, 226, &[(0xc6133874d4e57ab5, 49), (0x0a9d89b061367be5, 7), (0xa08596c131a88942, 7), (0xac036e32d3681003, 8), (0xf1c4bcf50b1b1b46, 5), (0xf1c4bcf50b1b1b46, 5), (0xf1c4bcf50b1b1b46, 5)]),
    ("von-neumann", 8, 5, 306, 306, &[(0x310e42af98fb7125, 64), (0x29c7e46d90e76262, 7), (0x736e80aa7efd6aa0, 7), (0x050cf5fd4b345567, 8), (0x5a6325399ed9cb83, 5), (0x5a6325399ed9cb83, 5)]),
    ("von-neumann", 12, 5, 746, 746, &[(0xbd2db8e6c49adf25, 144), (0x04c5066f779e7847, 7), (0x50e0d3f512196f80, 7), (0x5f7df3a544ebb1c0, 10), (0xabf81b365b86b422, 5), (0xabf81b365b86b422, 5)]),
    ("von-neumann", 16, 5, 1378, 1378, &[(0x47b5eeb1c24f5b25, 256), (0xc5cd82d9f18301c4, 7), (0x218895eaeb264424, 7), (0x5f6ee0b39cf25f47, 9), (0x08c7003be404e165, 5), (0x08c7003be404e165, 5)]),
    ("von-neumann", 24, 5, 3218, 3218, &[(0xbf399c9b000cb425, 576), (0xfcf126f3750f15c0, 7), (0x8cbcfbfe76f7c740, 7), (0xe27284101e7a51e8, 10), (0xca3397b6751eaa80, 5), (0xca3397b6751eaa80, 5)]),
    ("von-neumann", 32, 5, 5826, 5826, &[(0x21b84c137ccdb625, 1024), (0xe83d3471b7a9abe2, 7), (0xdaec7c9f92c9b5a5, 7), (0x12752648b49385e3, 9), (0x72019f58fc58be22, 5), (0x72019f58fc58be22, 5)]),
    ("hex7", 4, 7, 74, 74, &[(0x3f71fbaf4605ff25, 16), (0x06347dbf29aeac89, 9), (0xae5131798ef5db05, 8), (0x19c63935b477e865, 8), (0x1317adb5afcc3386, 7), (0x1317adb5afcc3386, 7), (0x1317adb5afcc3386, 7)]),
    ("hex7", 5, 7, 135, 135, &[(0x6173f8c60ed7dcdd, 25), (0xa69bff5b5ae9a98d, 9), (0x060fc8e62cb7f183, 9), (0x09ad55f947ce0521, 10), (0xa70a177c8bdeb523, 7), (0xa70a177c8bdeb523, 7), (0xa70a177c8bdeb523, 7)]),
    ("hex7", 7, 6, 311, 311, &[(0xc6133874d4e57ab5, 49), (0x76a15f016412f5c5, 9), (0x184bb2c3eddc0621, 8), (0x86583808c526336b, 10), (0x29527de740e7e4c3, 7), (0x29527de740e7e4c3, 7), (0x29527de740e7e4c3, 7)]),
    ("hex7", 8, 6, 426, 426, &[(0x310e42af98fb7125, 64), (0x9c427b0900ab76a5, 9), (0xb9710584fe2a24c3, 9), (0xf64b9f4c901e60a7, 11), (0xcedc19594a245620, 7), (0xcedc19594a245620, 7)]),
    ("hex7", 12, 6, 1066, 1066, &[(0xbd2db8e6c49adf25, 144), (0x0518b430d4f9c5e5, 9), (0x03973c1887c977aa, 10), (0x4af4c2eef9cee821, 13), (0x4595c7321caffea5, 7), (0x4595c7321caffea5, 7)]),
    ("hex7", 16, 6, 1994, 1994, &[(0x47b5eeb1c24f5b25, 256), (0xaea52b9242846749, 9), (0x8edbf7749b43aa4b, 10), (0x9fd47a89733e952b, 12), (0xdd044a88d156bea3, 7), (0xdd044a88d156bea3, 7)]),
    ("hex7", 24, 6, 4714, 4714, &[(0xbf399c9b000cb425, 576), (0xce8b4bdc704a63a5, 9), (0xb6daf6e996d9d92a, 10), (0x8161e26f72f93907, 14), (0xe673b5ac69592e47, 7), (0xe673b5ac69592e47, 7)]),
    ("hex7", 32, 6, 8586, 8586, &[(0x21b84c137ccdb625, 1024), (0x3766914d34503325, 9), (0x791681023af5c1e2, 10), (0x36b13081db7bf56f, 14), (0xfe027c996f36cfc5, 7), (0xfe027c996f36cfc5, 7)]),
    ("antenna", 4, 9, 92, 92, &[(0x3f71fbaf4605ff25, 16), (0xcf29137bb6bf1fc6, 10), (0x10ca5961dca6ed64, 9), (0x727236ef240b39cc, 11), (0x10ca5961dca6ed64, 9), (0x10ca5961dca6ed64, 9), (0x10ca5961dca6ed64, 9)]),
    ("antenna", 5, 11, 191, 191, &[(0x6173f8c60ed7dcdd, 25), (0xe3f76b7c2ad79dc3, 13), (0xbc03e8a69a4d9f86, 11), (0xc417094c6bec1d80, 13), (0xbc03e8a69a4d9f86, 11), (0xbc03e8a69a4d9f86, 11), (0xbc03e8a69a4d9f86, 11)]),
    ("antenna", 7, 15, 545, 545, &[(0xc6133874d4e57ab5, 49), (0x1413bdeaed531a02, 19), (0x5b031768409783ec, 16), (0xa8553492c0c655e5, 19), (0x94b66c29dcd0912d, 15), (0x94b66c29dcd0912d, 15), (0x94b66c29dcd0912d, 15)]),
    ("antenna", 8, 15, 797, 797, &[(0x310e42af98fb7125, 64), (0xd2b767aff47df8f6, 20), (0xce36356dc35a24e3, 18), (0xe075348dae23165a, 18), (0xd680c88c69dbd142, 15), (0xd680c88c69dbd142, 15)]),
    ("antenna", 12, 15, 2265, 2265, &[(0xbd2db8e6c49adf25, 144), (0xd5c0ffb27d90cac4, 21), (0xd7fb45226741ba84, 22), (0x673f25eeab1d1cd9, 24), (0xc26bc719568d0326, 16), (0xc26bc719568d0326, 16)]),
    ("antenna", 16, 14, 4469, 4469, &[(0x47b5eeb1c24f5b25, 256), (0x160dfd12086186c6, 21), (0x46a17b7e853932bb, 23), (0xa3317f45f32cf812, 24), (0x88e4a316b6ba3dca, 16), (0x88e4a316b6ba3dca, 16)]),
    ("antenna", 24, 12, 11085, 11085, &[(0xbf399c9b000cb425, 576), (0x994e598d46cc36bf, 21), (0xd92a027ea5bb90ef, 23), (0x776f5168528be388, 27), (0x8c4e7f3e70832961, 15), (0x8c4e7f3e70832961, 15)]),
    ("antenna", 32, 12, 20645, 20645, &[(0x21b84c137ccdb625, 1024), (0xfdec002755918326, 21), (0xb2461006238def25, 22), (0xa1030cce189378cc, 28), (0x834ff40d05dd0d6d, 15), (0x834ff40d05dd0d6d, 15)]),
    ("moore-3d", 4, 27, 1340, 1340, &[(0x310e42af98fb7125, 64), (0x6ffe064a2286b625, 27), (0x484baef5d5e881a5, 27), (0x8087fd153b966804, 29), (0x484baef5d5e881a5, 27), (0x484baef5d5e881a5, 27)]),
    ("moore-3d", 5, 27, 3367, 3367, &[(0x9c3028eb7e9ff139, 125), (0xe94379b02b3ee07f, 27), (0xc85fdf3ba5032da5, 27), (0x17531232808a71ec, 34), (0xc85fdf3ba5032da5, 27), (0xc85fdf3ba5032da5, 27)]),
    ("moore-3d", 7, 27, 12023, 12023, &[(0x48071a7d50e56f35, 343), (0xcc7422e31fbdb4a5, 27), (0x279a8007490ab3c8, 27), (0x1d1217f45768fa32, 43), (0x279a8007490ab3c8, 27), (0x279a8007490ab3c8, 27)]),
    ("moore-3d", 8, 27, 19396, 19396, &[(0x3accd01c5be01425, 512), (0x83731669f56b7ea1, 27), (0x4fe6882846492c25, 27), (0x308a715878ef8931, 44), (0x4fe6882846492c25, 27), (0x4fe6882846492c25, 27)]),
];

#[test]
fn colourings_match_their_pinned_fingerprints() {
    for (name, side, clique, edges, zero_conflicts, colourings) in PINNED {
        let graph = window_conflicts(name, side);
        let case = format!("{name} at side {side}");
        assert_eq!(graph.greedy_clique_bound(), clique, "{case}");
        assert_eq!(graph.edge_count(), edges, "{case}");
        let all_zero = vec![0; graph.len()];
        assert_eq!(graph.conflict_count(&all_zero), zero_conflicts, "{case}");
        assert_eq!(generator_colourings(&graph), colourings, "{case}");
    }
}

#[test]
fn the_window_adjacency_yields_the_interference_graphs_conflicts() {
    // The engine colours the conflict graph of its cached window adjacency;
    // node ids follow the lexicographic window order, as vertex ids do. The
    // antenna's interference edges are directed.
    for (name, side, ..) in PINNED {
        let (shape, dim) = pinned_shape(name);
        let window = BoxRegion::square_window(dim, side).unwrap();
        let adjacency = latsched::engine::grid_adjacency(&window, &shape).unwrap();
        let from_adjacency = ConflictGraph::from_interference(
            (0..adjacency.num_nodes())
                .map(|v| adjacency.neighbours_of(v).iter().map(|&u| u as usize)),
        )
        .unwrap();
        assert_eq!(
            from_adjacency,
            window_conflicts(name, side),
            "{name} at side {side}"
        );
    }
}
