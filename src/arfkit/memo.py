"""One per-object store for data derived from descriptors (groups,
algebras) whose own fields never change.

Entries are built on first use.  Racing first uses may build an entry
twice, but `dict.setdefault` hands each of them the value stored first.
A derived table keyed by element (`derived_entry`) grows one entry per
element queried.
"""
from __future__ import annotations

import threading

_store_lock = threading.Lock()
_NO_STORE = {}      # read in place of an object's missing store, never written


def derived(obj, key, build, *args):
    """obj's derived value `key`: build(*args) on first use, then the stored
    value.  `build` must not return None."""
    # a plain attribute: touching obj.__dict__ would slow every attribute
    # read on obj
    store = getattr(obj, "_derived", None)
    if store is None:
        with _store_lock:       # racing first uses must share one store
            store = getattr(obj, "_derived", None)
            if store is None:
                store = obj._derived = {}
    value = store.get(key)
    if value is None:
        value = store.setdefault(key, build(*args))
    return value


def derived_entry(obj, key, item, build, *args):
    """Entry `item` of obj's derived table `key`: build(*args) on first
    use, then the stored value.  `build` must not return None."""
    # a hit reads the store with no lock and no nested call: an Upsilon
    # pair reads one entry
    table = getattr(obj, "_derived", _NO_STORE).get(key)
    if table is None:
        table = derived(obj, key, dict)
    value = table.get(item)
    if value is None:
        value = table.setdefault(item, build(*args))
    return value
