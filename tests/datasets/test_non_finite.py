"""A POI with an infinite or NaN coordinate is refused on the way in.

One such POI used to go in silently: its MBR reached infinity, every
anchor frame and band radius derived from it followed, and queries over
the collection answered differently from brute force over it.
"""

import math

import pytest

from repro.datasets import POI, POICollection, load_csv

BAD = [(math.inf, 100.0), (100.0, -math.inf), (math.nan, 0.0),
       (0.0, math.nan)]


def good(n=4):
    return [POI.make(i, float(i), float(i), ["cafe"]) for i in range(n)]


@pytest.mark.parametrize("x, y", BAD)
def test_collection_refuses_non_finite_location(x, y):
    pois = good() + [POI.make(4, x, y, ["cafe"])]
    with pytest.raises(ValueError, match="POI 4 has a non-finite location"):
        POICollection(pois)


@pytest.mark.parametrize("x, y", BAD)
def test_derive_refuses_non_finite_appended_poi(x, y):
    base = POICollection(good())
    with pytest.raises(ValueError, match="POI 4 has a non-finite location"):
        base.derive(set(), [POI.make(4, x, y, ["cafe"])])
    # The refused derive left the source collection whole.
    assert len(base) == 4 and len(base.xs) == len(base.ys) == 4


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400"])
def test_load_csv_refuses_non_finite_coordinates(tmp_path, text):
    path = tmp_path / "pois.csv"
    path.write_text("id,x,y,keywords\n0,1.0,2.0,cafe\n"
                    f"1,{text},5.0,bar\n2,3.0,4.0,cafe\n")
    with pytest.raises(ValueError, match="POI 1 has a non-finite location"):
        load_csv(path)


def test_finite_coordinates_fill_the_columns():
    collection = POICollection(
        [POI.make(0, -0.0, 1e308, ["a"]), POI.make(1, 2, -3.5, ["b"])])
    assert [repr(x) for x in collection.xs] == ["-0.0", "2.0"]
    assert collection.ys == [1e308, -3.5]
    assert all(type(v) is float for v in collection.xs + collection.ys)
