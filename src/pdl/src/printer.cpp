#include "scan/pdl/printer.hpp"

#include <charconv>

namespace scan::pdl {

std::string FormatPdlNumber(double value) {
  // std::to_chars with no precision emits the shortest string that
  // round-trips exactly — the property the printer contract needs.
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc{} ? std::string(buffer, ptr) : std::string("0");
}

namespace {

void PrintAttr(std::string& out, const Attribute& attr, const char* indent) {
  out += indent;
  out += attr.name;
  out += " = ";
  out += attr.is_number ? FormatPdlNumber(attr.number) : attr.ident;
  out += ";\n";
}

void PrintBlock(std::string& out, const BlockClause& block) {
  out += "  ";
  out += block.name;
  out += " {\n";
  for (const Attribute& attr : block.attrs) PrintAttr(out, attr, "    ");
  out += "  }\n";
}

}  // namespace

std::string PrintPdl(const PipelineDecl& ast) {
  std::string out = "pipeline \"" + ast.name + "\" {\n";
  for (const Attribute& attr : ast.attrs) PrintAttr(out, attr, "  ");
  if (ast.shard.has_value()) {
    out += "  shard = " + ast.shard->policy;
    if (ast.shard->param.has_value()) {
      out += '(';
      out += FormatPdlNumber(*ast.shard->param);
      out += ')';
    }
    out += ";\n";
  }
  if (ast.reward.has_value()) PrintBlock(out, *ast.reward);
  if (ast.faults.has_value()) PrintBlock(out, *ast.faults);
  for (const StageDecl& stage : ast.stages) {
    out += "\n  stage " + stage.name + " {\n";
    for (const Attribute& attr : stage.attrs) PrintAttr(out, attr, "    ");
    if (stage.has_after) {
      out += "    after ";
      for (std::size_t i = 0; i < stage.after.size(); ++i) {
        if (i > 0) out += ", ";
        out += stage.after[i].name;
      }
      out += ";\n";
    }
    out += "  }\n";
  }
  out += "}\n";
  return out;
}

}  // namespace scan::pdl
