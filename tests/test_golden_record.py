import json

import golden_record


def test_outputs_equal_the_golden_record(builtin_dictionary, letter_dict):
    # seeded stops, reads and calibrations against the record that
    # golden_record.py wrote: floats bit for bit on the recorded platform,
    # within golden_record.REL_TOL elsewhere
    doc = json.loads(golden_record.PATH.read_text())
    exact = doc["platform"] == golden_record.platform_tag()
    got = golden_record.records(builtin_dictionary, letter_dict)
    assert not golden_record.mismatches(got, doc["records"], exact)


def test_mismatches_name_differing_missing_and_reordered_records():
    one, near = (1.0).hex(), (1.0 + 4e-16).hex()
    want = {"a": [one], "b": ["square"]}
    assert golden_record.mismatches({"a": [near], "b": ["square"]}, want, exact=False) == []
    assert golden_record.mismatches({"a": [near], "b": ["square"]}, want, exact=True) == ["a"]
    assert golden_record.mismatches({"a": [one]}, want, exact=True) == ["a", "b"]
    assert golden_record.mismatches({"b": ["square"], "a": [one]}, want, exact=True) == ["a", "b"]


def test_same_compares_floats_by_platform():
    one, near = (1.0).hex(), (1.0 + 4e-16).hex()
    assert golden_record.same([one, "square", 3], [one, "square", 3], exact=True)
    assert not golden_record.same([near], [one], exact=True)
    assert golden_record.same([near], [one], exact=False)
    assert not golden_record.same([(1.0 + 1e-11).hex()], [one], exact=False)
    assert not golden_record.same(["disk"], ["square"], exact=False)
    assert not golden_record.same([3], [3.0], exact=True)
