#include "scan/obs/export_writer.hpp"

namespace scan::obs {

ExportWriter::ExportWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")),
      ok_(file_ != nullptr),
      buffer_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {
  // The writer does its own buffering; stdio's would only add a copy.
  if (file_ != nullptr) std::setvbuf(file_, nullptr, _IONBF, 0);
}

ExportWriter::ExportWriter(std::string* out)
    : string_(out),
      buffer_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {}

ExportWriter::~ExportWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void ExportWriter::Sink(const char* data, std::size_t size) {
  if (string_ != nullptr) {
    string_->append(data, size);
  } else if (ok_ && std::fwrite(data, 1, size, file_) != size) {
    ok_ = false;
  }
}

void ExportWriter::Flush() {
  Sink(buffer_.get(), used_);
  used_ = 0;
}

bool ExportWriter::Close() {
  if (closed_) return ok_;
  closed_ = true;
  Flush();
  if (file_ != nullptr && std::fclose(file_) != 0) ok_ = false;
  file_ = nullptr;
  return ok_;
}

}  // namespace scan::obs
