"""One per-object store for data derived from descriptors (groups,
algebras) whose own fields never change.

Entries are built on first use.  Racing first uses may build an entry
twice, but `dict.setdefault` hands each of them the value stored first.
"""
from __future__ import annotations

import threading

_store_lock = threading.Lock()


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
