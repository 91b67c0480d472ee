#pragma once
#include <string>
#include <string_view>

namespace demo::support {

template <typename Range>
std::string join_names(const Range& names) {
    std::string out;
    for (const auto& name : names) out += name;
    return out;
}

class CliArgs {
public:
    bool finish(std::string_view program_name) const;
};

}  // namespace demo::support
