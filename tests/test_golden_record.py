import json

import golden_record


def test_outputs_equal_the_golden_record(builtin_dictionary, letter_dict):
    # seeded stops, reads and calibrations against the record that
    # golden_record.py wrote: floats bit for bit on the recorded platform,
    # within golden_record.REL_TOL elsewhere
    doc = json.loads(golden_record.PATH.read_text())
    exact = doc["platform"] == golden_record.platform_tag()
    got = golden_record.records(builtin_dictionary, letter_dict)
    assert list(got) == list(doc["records"])
    for key, want in doc["records"].items():
        assert golden_record.same(got[key], want, exact), key


def test_same_compares_floats_by_platform():
    one, near = (1.0).hex(), (1.0 + 4e-16).hex()
    assert golden_record.same([one, "square", 3], [one, "square", 3], exact=True)
    assert not golden_record.same([near], [one], exact=True)
    assert golden_record.same([near], [one], exact=False)
    assert not golden_record.same([(1.0 + 1e-11).hex()], [one], exact=False)
    assert not golden_record.same(["disk"], ["square"], exact=False)
    assert not golden_record.same([3], [3.0], exact=True)
