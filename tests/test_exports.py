"""`covkit.__all__` lists each name once, and each resolves on the
package, so a deleted function cannot stay behind in the exports."""

import collections

import covkit


def test_every_export_is_listed_once():
    counts = collections.Counter(covkit.__all__)
    assert [name for name, c in counts.items() if c > 1] == []


def test_every_export_resolves_on_the_package():
    assert [name for name in covkit.__all__
            if not hasattr(covkit, name)] == []
