"""Table II — dataset statistics.

Regenerates the paper's dataset summary for the scaled synthetic stand-ins
and checks the cross-dataset ratios the algorithms are sensitive to: CA has
the richest descriptions, CN the largest (relative) vocabulary.
"""

from repro.datasets import dataset_statistics, format_table2

from series import write_result


def test_table2_statistics(datasets):
    stats = [dataset_statistics(name, datasets[name])
             for name in ("CA", "VA", "CN")]
    table = format_table2(stats)
    print()
    print(table)
    write_result("table2_datasets", table)

    by_name = {s.name: s for s in stats}
    # Paper Table II shapes: CA ~8.6 terms/POI, VA ~4.5, CN ~3.85.
    assert by_name["CA"].avg_terms_per_poi > by_name["VA"].avg_terms_per_poi
    assert by_name["VA"].avg_terms_per_poi > by_name["CN"].avg_terms_per_poi
    assert 6.0 <= by_name["CA"].avg_terms_per_poi <= 11.0
    assert 3.5 <= by_name["VA"].avg_terms_per_poi <= 5.5
    assert 2.8 <= by_name["CN"].avg_terms_per_poi <= 4.8
    # CN is the biggest collection at bench scale too.
    assert by_name["CN"].num_pois > by_name["CA"].num_pois
    # Vocabulary ordering: CN >> CA > VA (753k vs 35k vs 26k in the paper).
    assert by_name["CN"].num_unique_terms > by_name["CA"].num_unique_terms
    assert by_name["CA"].num_unique_terms > by_name["VA"].num_unique_terms


def test_benchmark_dataset_generation(benchmark):
    """Timing of the synthetic generator itself (VA preset, bench scale)."""
    from repro.datasets import generate, virginia_like

    benchmark(lambda: generate(virginia_like(scale=1000.0)))
