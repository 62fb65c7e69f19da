// Serving-stats schema: every stats field is declared exactly once.
//
// A stats struct is an X-macro field list of X(type, name, default, unit,
// doc) entries; PECAN_STATS_STRUCT(Name, FIELDS) expands it into the
// aggregate `struct Name` (members in list order, with their types and
// defaults) and into for_each_field(s, f), which calls f("name", "unit",
// s.name) per member. The STATS wire reply, the reply-key test and the
// docs unit check all walk for_each_field. `unit` is one of the
// STATS_REFERENCE.md units; `doc` documents the member at its declaration.
#pragma once

#define PECAN_STATS_MEMBER(type, name, init, unit, doc) type name = init;
#define PECAN_STATS_VISIT(type, name, init, unit, doc) f(#name, unit, s.name);

#define PECAN_STATS_STRUCT(Name, FIELDS)             \
  struct Name {                                      \
    FIELDS(PECAN_STATS_MEMBER)                       \
  };                                                 \
  template <typename F>                              \
  inline void for_each_field(const Name& s, F&& f) { \
    FIELDS(PECAN_STATS_VISIT)                        \
  }
