"""Separate-then-fuse audio-visual reasoning toolkit.

Trace grammar and rewards, modality-asymmetric attention masks, reference
masked attention with analysis probes, group-relative policy optimization,
and the preferred-evidence-modality annotation pipeline.

Each name is imported from the module that defines it, e.g.
``from sffuse.mask_engine import build_composite``.
"""
