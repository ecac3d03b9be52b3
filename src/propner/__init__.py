"""Entity-property knowledge base augmentation for NER.

Pipeline: ingest a WikiData-style dump into a surface-form dictionary with
property contexts, retrieve entity/context pairs for a sentence by longest
string match, append the contexts to the input with an entity-aware
attention mask, and tag with a small from-scratch transformer. Includes
k-fold weighted voting and entity-level span F1 scoring.
"""
