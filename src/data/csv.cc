#include "data/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace pme::data {
namespace {

Result<Dataset> ParseLines(std::istream& in, const CsvReadOptions& options) {
  std::string line;
  std::vector<std::string> names;
  // Byte offset of the start of the current line — reported alongside
  // the line number in every error so a malformed record in a large file
  // can be found with `dd`/`tail -c` instead of a line-counting pass.
  size_t line_start_byte = 0;
  size_t next_line_byte = 0;
  auto read_line = [&]() {
    line_start_byte = next_line_byte;
    if (!std::getline(in, line)) return false;
    next_line_byte += line.size() + 1;  // +1 for the consumed '\n'
    return true;
  };
  if (options.has_header) {
    if (!read_line()) {
      return Status::IoError("CSV input is empty (no header)");
    }
    for (auto& f : Split(line, options.delimiter)) {
      names.emplace_back(Trim(f));
    }
  }

  auto role_of = [&options](const std::string& name) {
    auto in_list = [&name](const std::vector<std::string>& list) {
      return std::find(list.begin(), list.end(), name) != list.end();
    };
    if (in_list(options.sensitive_attributes)) return AttributeRole::kSensitive;
    if (in_list(options.identifier_attributes)) {
      return AttributeRole::kIdentifier;
    }
    return AttributeRole::kQuasiIdentifier;
  };

  bool schema_built = !names.empty();
  Schema schema;
  std::vector<size_t> keep;  // source column -> kept (ID columns dropped)
  auto build_schema = [&](size_t ncols) {
    for (size_t i = 0; i < ncols; ++i) {
      std::string name = i < names.size() ? names[i] : "col" + std::to_string(i);
      AttributeRole role = role_of(name);
      if (role == AttributeRole::kIdentifier) {
        keep.push_back(SIZE_MAX);
      } else {
        keep.push_back(schema.AddAttribute(name, role));
      }
    }
  };
  if (schema_built) build_schema(names.size());

  Dataset dataset{Schema{}};
  bool dataset_init = false;
  size_t line_no = options.has_header ? 1 : 0;

  auto at = [&](size_t ln) {
    return "CSV line " + std::to_string(ln) + " (byte offset " +
           std::to_string(line_start_byte) + ")";
  };
  // Both views point into `line`, which every read reuses.
  std::vector<std::string_view> fields;
  std::vector<std::string_view> values;
  while (read_line()) {
    ++line_no;
    if (Trim(line).empty()) continue;
    fields.clear();
    const std::string_view text(line);
    for (size_t start = 0;;) {
      const size_t end = text.find(options.delimiter, start);
      fields.push_back(text.substr(start, end - start));
      if (end == std::string_view::npos) break;
      start = end + 1;
    }
    if (!schema_built) {
      build_schema(fields.size());
      schema_built = true;
    }
    if (fields.size() != keep.size()) {
      return Status::IoError(at(line_no) + ": expected " +
                             std::to_string(keep.size()) + " fields, got " +
                             std::to_string(fields.size()));
    }
    if (!dataset_init) {
      dataset = Dataset(std::move(schema));
      dataset_init = true;
    }
    values.clear();
    for (size_t i = 0; i < fields.size(); ++i) {
      if (keep[i] == SIZE_MAX) continue;
      values.push_back(Trim(fields[i]));
    }
    if (Status s = dataset.AppendRecordValues(values); !s.ok()) {
      return Status::IoError(at(line_no) + ": " + s.message());
    }
  }
  if (!dataset_init) {
    if (!schema_built) return Status::IoError("CSV input has no data");
    dataset = Dataset(std::move(schema));
  }
  return dataset;
}

}  // namespace

Result<Dataset> ReadCsv(const std::string& path,
                        const CsvReadOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ParseLines(in, options);
}

Result<Dataset> ReadCsvString(const std::string& content,
                              const CsvReadOptions& options) {
  std::istringstream in(content);
  return ParseLines(in, options);
}

Status WriteCsv(const Dataset& dataset, const std::string& path,
                char delimiter) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const Schema& schema = dataset.schema();
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out << delimiter;
    out << schema.attribute(i).name;
  }
  out << "\n";
  for (size_t r = 0; r < dataset.num_records(); ++r) {
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      if (i > 0) out << delimiter;
      out << dataset.ValueAt(r, i);
    }
    out << "\n";
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

}  // namespace pme::data
