// The stats schema against docs/STATS_REFERENCE.md: every field of the five
// serving-stats structs has a row in its struct's `## <Struct>` section with
// the field's backticked name and the schema's unit, and every row there
// names a field of that struct.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "runtime/net_server.hpp"

namespace pecan {
namespace {

/// (backticked names of the first cell, unit cell) per `## ` section.
using Row = std::pair<std::vector<std::string>, std::string>;

std::map<std::string, std::vector<Row>> reference_rows() {
  std::ifstream in(std::filesystem::path(__FILE__).parent_path().parent_path() /
                   "docs/STATS_REFERENCE.md");
  EXPECT_TRUE(in);
  std::map<std::string, std::vector<Row>> sections;
  std::string section;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) section = line.substr(3);
    const std::size_t c1 = line.find(" | ");
    const std::size_t c2 = line.find(" | ", c1 + 3);
    if (line.rfind("| `", 0) != 0 || c2 == std::string::npos) continue;
    Row row{{}, line.substr(c1 + 3, c2 - c1 - 3)};
    for (std::size_t a = line.find('`'), b; a < c1 && (b = line.find('`', a + 1)) < c1;
         a = line.find('`', b + 1)) {
      row.first.push_back(line.substr(a + 1, b - a - 1));
    }
    sections[section].push_back(row);
  }
  return sections;
}

template <typename S>
void expect_documented(const std::string& section) {
  SCOPED_TRACE(section);
  const std::vector<Row> rows = reference_rows()[section];
  std::vector<std::string> fields;
  for_each_field(S{}, [&](const char* name, const char* unit, const auto&) {
    fields.emplace_back(name);
    EXPECT_TRUE(std::any_of(rows.begin(), rows.end(), [&](const Row& row) {
      return row.second == unit &&
             std::find(row.first.begin(), row.first.end(), name) != row.first.end();
    })) << "no row `" << name << "` | " << unit;
  });
  for (const Row& row : rows) {
    for (const std::string& name : row.first) {
      EXPECT_NE(std::find(fields.begin(), fields.end(), name), fields.end())
          << "row `" << name << "` names no field";
    }
  }
}

TEST(StatsSchema, EveryFieldHasAReferenceRowWithItsUnit) {
  expect_documented<runtime::NetServerStats>("NetServerStats");
  expect_documented<runtime::ModelServerStats>("ModelServerStats");
  expect_documented<runtime::EngineStats>("EngineStats");
  expect_documented<runtime::EngineClassStats>("EngineClassStats");
  expect_documented<cam::BankStats>("BankStats");
}

}  // namespace
}  // namespace pecan
